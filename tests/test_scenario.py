"""Geometry, synthetic generation, routing and serialization tests."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from freqplan import (
    Beam,
    ConstellationGeometry,
    DomainError,
    FrequencyGrid,
    GenerationParams,
    LinkBudget,
    RestrictionSets,
    RoutingError,
    Scenario,
    ScenarioFormatError,
    derive_restrictions,
    generate_synthetic,
    load_scenario,
    route_beams,
    save_scenario,
)
from freqplan.scenario import (
    EARTH_RADIUS_KM,
    MU_EARTH_KM3_S2,
    central_angle_deg,
    derive_inter_pairs,
    derive_intra_pairs,
    elevation_deg,
    routing_steps,
    scenario_from_dict,
    scenario_to_dict,
)

from util import routing_as_dict

GRID = FrequencyGrid(n_bw=6, n_fr=2, n_p=2)
GEOM = ConstellationGeometry(n_s=7, altitude_km=8062.0)


def tiny_scenario(beams, geometry=GEOM, **kw):
    return Scenario(grid=GRID, beams=tuple(beams), geometry=geometry, **kw)


class TestGeometry:
    def test_orbital_period_kepler(self):
        # independent recompute of 2*pi*sqrt(a^3/mu) for h = 8062 km
        a = EARTH_RADIUS_KM + 8062.0
        expected = 2 * math.pi * math.sqrt(a**3 / MU_EARTH_KM3_S2) / 60.0
        assert GEOM.period_min == pytest.approx(expected)
        assert 280 < GEOM.period_min < 300  # MEO-range sanity band

    def test_spacing_and_wraparound(self):
        assert GEOM.spacing_deg == pytest.approx(360.0 / 7)
        assert GEOM.subsatellite_lon(0, 0.0) == pytest.approx(0.0)
        assert GEOM.subsatellite_lon(3, 0.0) == pytest.approx(3 * 360.0 / 7)
        # one full period returns every satellite to its start longitude
        t = GEOM.period_min
        assert GEOM.subsatellite_lon(2, t) == pytest.approx(
            GEOM.subsatellite_lon(2, 0.0), abs=1e-9
        )

    def test_central_angle_known_points(self):
        assert central_angle_deg(0, 0, 0, 90) == pytest.approx(90.0)
        assert central_angle_deg(0, 10, 0, 10) == pytest.approx(0.0)
        assert central_angle_deg(45, 0, -45, 180) == pytest.approx(180.0, abs=1e-6)

    def test_elevation_limits(self):
        # directly overhead
        assert elevation_deg(0.0, 8062.0) == pytest.approx(90.0)
        # geometric horizon: cos(psi) = R / (R + h) gives elevation 0
        psi = math.degrees(math.acos(EARTH_RADIUS_KM / (EARTH_RADIUS_KM + 8062.0)))
        assert elevation_deg(psi, 8062.0) == pytest.approx(0.0, abs=1e-9)
        # beyond the horizon the elevation goes negative
        assert elevation_deg(psi + 5.0, 8062.0) < 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(DomainError):
            ConstellationGeometry(n_s=0, altitude_km=8062.0)
        with pytest.raises(DomainError):
            ConstellationGeometry(n_s=1, altitude_km=0.0)

    NON_FINITE = {
        "altitude_km": lambda v: ConstellationGeometry(n_s=1, altitude_km=v),
        "slot_bandwidth_hz": lambda v: FrequencyGrid(n_bw=1, n_fr=1, n_p=1, slot_bandwidth_hz=v),
        "half_cone_deg": lambda v: tiny_scenario([Beam(id=1)], half_cone_deg=v),
        "min_elevation_deg": lambda v: tiny_scenario([Beam(id=1)], min_elevation_deg=v),
        "interference_multiplier": lambda v: tiny_scenario([Beam(id=1)], interference_multiplier=v),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", NON_FINITE)
    def test_constructors_reject_non_finite_numbers(self, field, value):
        """NaN passed the old `<= 0` tests: a NaN altitude was written to a
        scenario file, a NaN horizon made every satellite visible and a NaN
        multiplier found no inter pairs."""
        with pytest.raises(DomainError, match=f"^{field} must be .*, got {value}$"):
            self.NON_FINITE[field](value)

    def test_interference_multiplier_must_not_be_negative(self):
        """A negative multiplier silently found no inter pairs; 0 finds none
        by definition."""
        with pytest.raises(DomainError, match=r"interference_multiplier must be finite and >= 0, got -3\.0"):
            tiny_scenario([Beam(id=1)], interference_multiplier=-3.0)
        assert tiny_scenario([Beam(id=1)], interference_multiplier=0.0).interference_multiplier == 0.0


class TestGeneration:
    def test_deterministic_for_seed(self):
        a = generate_synthetic(seed=3, n_users=40, grid=GRID, geometry=GEOM)
        b = generate_synthetic(seed=3, n_users=40, grid=GRID, geometry=GEOM)
        assert scenario_to_dict(a) == scenario_to_dict(b)
        c = generate_synthetic(seed=4, n_users=40, grid=GRID, geometry=GEOM)
        assert scenario_to_dict(a) != scenario_to_dict(c)

    def test_clustering_preserves_demand_and_bounds_count(self):
        s = generate_synthetic(seed=11, n_users=60, grid=GRID, geometry=GEOM)
        assert 1 <= len(s.beams) <= 60
        rng = np.random.default_rng(11)
        lats = rng.uniform(-50, 50, size=60)
        lons = rng.uniform(0.0, 360.0, size=60)
        demands = np.exp(rng.uniform(math.log(10e6), math.log(500e6), size=60))
        assert sum(b.demand_bps for b in s.beams) == pytest.approx(float(demands.sum()))
        assert all(-50 <= b.lat <= 50 for b in s.beams)

    def test_generated_beams_are_users_with_the_default_min_slots(self):
        """The generator draws user beams only; gateways come from scenario
        files. Every beam holds at least one user, whose demand is at least
        the 10 Mb/s floor of the draw."""
        s = generate_synthetic(seed=5, n_users=80, grid=GRID, geometry=GEOM)
        assert s.beams
        assert all(b.kind == "user" and b.min_slots == Beam(id=0).min_slots for b in s.beams)
        assert all(b.demand_bps >= 10e6 for b in s.beams)

    def test_rejects_zero_users(self):
        with pytest.raises(DomainError):
            generate_synthetic(seed=0, n_users=0, grid=GRID, geometry=GEOM)

    @pytest.mark.parametrize(
        "params",
        [
            {"lat_band_deg": (10.0, -10.0)},
            {"lat_band_deg": (80.0, 100.0)},
            {"lat_band_deg": (-90.5, 0.0)},
            {"lat_band_deg": (math.nan, 0.0)},
        ],
    )
    def test_generation_params_reject_bad_ranges(self, params):
        """A reversed latitude band used to be a numpy ValueError, one past
        a pole gave beams at latitude 99."""
        with pytest.raises(DomainError):
            GenerationParams(**params)
        GenerationParams(lat_band_deg=(-90.0, 90.0))


class TestRouting:
    def test_steps_cover_horizon_inclusive(self):
        s = tiny_scenario([Beam(id=1)], horizon_min=10, step_min=2.5)
        assert routing_steps(s) == [0.0, 2.5, 5.0, 7.5, 10.0]

    def test_routes_to_nearest_visible_reference(self):
        beams = [Beam(id=i, lat=0.0, lon=lon) for i, lon in ((1, 10.0), (2, 200.0))]
        s = tiny_scenario(beams, horizon_min=30, step_min=5)
        routing = routing_as_dict(s, route_beams(s))
        # independent recompute: nearest satellite above min elevation
        for t, at_t in routing.items():
            for beam in beams:
                best = None
                for sat in range(GEOM.n_s):
                    slon = (sat * 360.0 / 7 + 360.0 * t / GEOM.period_min) % 360.0
                    d = math.radians(beam.lon - slon)
                    ang = math.degrees(
                        math.acos(min(1.0, max(-1.0, math.cos(d) * math.cos(math.radians(beam.lat)))))
                    )
                    if elevation_deg(ang, GEOM.altitude_km) < s.min_elevation_deg:
                        continue
                    if best is None or (ang, sat) < best:
                        best = (ang, sat)
                assert best is not None
                assert at_t[beam.id] == best[1]

    def test_handover_happens_within_one_period(self):
        s = tiny_scenario(
            [Beam(id=1, lat=0.0, lon=0.0)], horizon_min=60, step_min=1
        )
        sats = route_beams(s)[:, 0].tolist()
        assert len(set(sats)) > 1  # satellites drift past: at least one handover

    def test_unreachable_beam_raises(self):
        s = tiny_scenario([Beam(id=1, lat=89.0, lon=0.0)], horizon_min=5, step_min=5)
        with pytest.raises(RoutingError):
            route_beams(s)


class TestRestrictionDerivation:
    def test_intra_from_shared_satellite(self):
        # single satellite: every beam shares it at every step
        geom = ConstellationGeometry(n_s=1, altitude_km=8062.0)
        beams = [Beam(id=i, lat=0.0, lon=float(i)) for i in (1, 2, 3)]
        s = tiny_scenario(beams, geometry=geom, horizon_min=1, step_min=1)
        routing = route_beams(s)
        assert derive_intra_pairs(s, routing).tolist() == [[1, 2], [1, 3], [2, 3]]

    def test_inter_uses_strict_threshold(self):
        # threshold = multiplier * half_cone = 4 degrees
        beams = [
            Beam(id=1, lat=0.0, lon=0.0),
            Beam(id=2, lat=0.0, lon=3.9),
            Beam(id=3, lat=0.0, lon=4.0),
        ]
        s = tiny_scenario(beams, half_cone_deg=1.0, interference_multiplier=4.0)
        assert derive_inter_pairs(s).tolist() == [[1, 2], [2, 3]]

    def test_explicit_restrictions_win(self):
        r = RestrictionSets.of(intra=[(1, 2)])
        s = tiny_scenario([Beam(id=1), Beam(id=2)], restrictions=r)
        assert derive_restrictions(s) is r


class TestSerialization:
    def test_dict_round_trip(self):
        # keep users near the equator so every beam stays covered
        s = generate_synthetic(
            seed=5, n_users=20, grid=GRID, geometry=GEOM,
            params=GenerationParams(lat_band_deg=(-30.0, 30.0)),
        )
        s = replace(s, restrictions=derive_restrictions(s))
        doc = scenario_to_dict(s)
        back = scenario_from_dict(json.loads(json.dumps(doc)))
        assert scenario_to_dict(back) == doc

    def test_file_round_trip(self, tmp_path):
        s = generate_synthetic(seed=5, n_users=10, grid=GRID, geometry=GEOM)
        path = tmp_path / "scenario.json"
        save_scenario(s, path)
        assert scenario_to_dict(load_scenario(path)) == scenario_to_dict(s)

    def test_file_round_trip_of_every_optional_field(self, tmp_path):
        s = Scenario(
            grid=FrequencyGrid(n_bw=6, n_fr=2, n_p=2, slot_bandwidth_hz=25e6),
            beams=(
                Beam(id=1, lat=1.5, lon=2.5, demand_bps=3e7, min_slots=2,
                     allowed_rows=(2, 3), allowed_slots=(1, 4)),
                Beam(id=4, kind="gateway", lat=-1.0, lon=359.5, demand_bps=1e8),
                Beam(id=7, allowed_rows=(1, 1)),
            ),
            geometry=ConstellationGeometry(n_s=5, altitude_km=1200.0),
            horizon_min=30.0, step_min=2.5, half_cone_deg=0.75,
            interference_multiplier=3.0, min_elevation_deg=20.0,
            restrictions=RestrictionSets.of(intra=[(4, 1), (1, 7)], inter=[(7, 4)]),
            link=LinkBudget(rolloff=0.2, obo_db=1.0, g_tx_db=40.0, g_rx_db=38.0,
                            t_sys_k=300.0, carrier_hz=20e9, distance_m=1200e3),
        )
        path = tmp_path / "scenario.json"
        save_scenario(s, path)
        back = load_scenario(path)
        assert back == s
        again = tmp_path / "again.json"
        save_scenario(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_empty_range_is_saved_as_unset(self, tmp_path):
        grid = FrequencyGrid(n_bw=4, n_fr=1, n_p=2)
        s = Scenario(
            grid=grid,
            beams=(Beam(id=1, allowed_rows=(), allowed_slots=()),),
            geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
        )
        path = tmp_path / "scenario.json"
        save_scenario(s, path)
        assert "allowed_rows" not in path.read_text()
        (beam,) = load_scenario(path).beams
        assert (beam.allowed_rows, beam.allowed_slots) == (None, None)
        assert beam.row_range(grid) == s.beams[0].row_range(grid)
        assert beam.slot_range(grid) == s.beams[0].slot_range(grid)

        doc = json.loads(path.read_text())
        doc["beams"][0].update(allowed_rows=[], allowed_slots=[])
        assert scenario_from_dict(doc) == load_scenario(path)

    def test_file_pairs_load_as_the_constructor_builds_them(self, tmp_path):
        """Reversed, repeated and unsorted pairs in a file load to the same
        canonical int64 arrays that RestrictionSets builds from the lists."""
        intra = [[7, 4], [1, 4], [4, 7], [7, 1], [1, 4]]
        inter = [[7, 4], [4, 1], [7, 4]]
        s = tiny_scenario([Beam(id=1), Beam(id=4), Beam(id=7)])
        doc = scenario_to_dict(s)
        doc["restrictions"] = {"intra": intra, "inter": inter}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        loaded = load_scenario(path).restrictions
        built = RestrictionSets(map(tuple, intra), map(tuple, inter))
        for kind, pairs in loaded.pairs.items():
            assert pairs.dtype == built.pairs[kind].dtype == np.int64
            assert pairs.tolist() == built.pairs[kind].tolist()
        assert loaded.pairs["intra"].tolist() == [[1, 4], [1, 7], [4, 7]]
        assert loaded.pairs["inter"].tolist() == [[1, 4], [4, 7]]

    def test_reflexive_file_pair_is_reported_at_restrictions(self):
        doc = scenario_to_dict(tiny_scenario([Beam(id=1), Beam(id=4)]))
        doc["restrictions"] = {"intra": [[4, 1], [4, 4], [1, 1]]}
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert err.value.field == "restrictions"
        assert str(err.value) == "restrictions: restriction pair (4, 4) is reflexive"

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.pop("grid"), "grid"),
            (lambda d: d["grid"].pop("n_bw"), "grid.n_bw"),
            (lambda d: d["grid"].update(n_p=5), "grid"),
            (lambda d: d.pop("geometry"), "geometry"),
            (lambda d: d["beams"][0].pop("id"), "beams[0].id"),
            (lambda d: d["beams"][0].update(min_slots=0), "beams[0]"),
            (lambda d: d["beams"][0].update(demand_bps=-1.0), "beams[0]"),
        ],
    )
    def test_schema_errors_carry_field_path(self, mutate, field):
        s = generate_synthetic(seed=5, n_users=5, grid=GRID, geometry=GEOM)
        doc = scenario_to_dict(s)
        mutate(doc)
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "path", ["geometry.altitude_km", "grid.slot_bandwidth_hz", "sim.horizon_min",
                 "sim.half_cone_deg", "sim.min_elevation_deg", "beams[0].lat", "beams[0].demand_bps"],
    )
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_rejected_at_their_field(self, path, token):
        """JSON readers accept NaN and Infinity, which pass every range
        check (an infinite horizon routes forever); the cast rejects them."""
        doc = scenario_to_dict(generate_synthetic(seed=5, n_users=5, grid=GRID, geometry=GEOM))
        section, name = path.split(".")
        (doc["beams"][0] if section == "beams[0]" else doc[section])[name] = float(token)
        text = json.dumps(doc)
        assert token in text
        with pytest.raises(ScenarioFormatError, match="is not a finite number") as err:
            scenario_from_dict(json.loads(text))
        assert err.value.field == path

    def test_scenario_rejects_an_infinite_horizon(self):
        with pytest.raises(DomainError, match="horizon_min must be finite"):
            tiny_scenario([Beam(id=1)], horizon_min=math.inf)

    def test_invalid_json_reports_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioFormatError):
            load_scenario(path)

    def test_duplicate_beam_ids_rejected(self):
        with pytest.raises(DomainError):
            tiny_scenario([Beam(id=1), Beam(id=1)])

"""The array scenario pipeline against the scalar loops it replaced.

Clustering, routing and both pair derivations must give exactly the
references' beams, routes and pairs, including at hand-built ties and
thresholds where numpy's and math's trigonometry could disagree by an ulp.
"""

import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freqplan import (
    Assignment,
    Beam,
    ConstellationGeometry,
    DomainError,
    FrequencyGrid,
    FrequencyPlan,
    GenerationParams,
    RestrictionSets,
    RoutingError,
    Scenario,
    Violation,
    brute_force_best_plan,
    build_full_model,
    derive_restrictions,
    emit_lp,
    generate_synthetic,
    greedy_warm_start,
    optimize,
    route_beams,
    validate_plan,
)
from freqplan import iterative, model, power as power_mod, scenario as scenario_mod
from freqplan.iterative import IterationConfig
from freqplan.model import ObjectiveWeights
from freqplan.power import DEFAULT_MODCODS, LinkBudget, beam_power, power_tables_for
from freqplan.scenario import (
    EARTH_RADIUS_KM,
    _cluster_users,
    central_angle_deg,
    derive_inter_pairs,
    derive_intra_pairs,
    elevation_deg,
    routing_steps,
)

from util import (
    narrowest_int,
    ref_cluster_users,
    ref_derive_inter_pairs,
    ref_derive_intra_pairs,
    ref_generate_beams,
    ref_partners,
    ref_route_beams,
    ref_validate_plan,
    routing_as_dict,
)

GRID = FrequencyGrid(n_bw=40, n_fr=8, n_p=2, slot_bandwidth_hz=50e6)
GEOM = ConstellationGeometry(n_s=7, altitude_km=8062.0)


def routed_or_error(route, scenario):
    """The routing as {step: {beam id: satellite}}, or the (beam, t) of the
    RoutingError it raises. route_beams' array is checked to be (steps,
    beams) first, in the narrowest of int16, int32 and int64 that holds -1
    and every satellite index."""
    try:
        routing = route(scenario)
    except RoutingError as err:
        return (err.beam_id, err.step_min)
    if isinstance(routing, dict):
        return routing
    assert routing.dtype == narrowest_int(-1, scenario.geometry.n_s - 1)
    assert routing.shape == (len(routing_steps(scenario)), len(scenario.beams))
    return routing_as_dict(scenario, routing)


def pair_set(pairs, scenario):
    """A pair array derived over ``scenario`` as a frozenset of tuples, once
    it is checked to be canonical: rows (smaller id, larger id), sorted and
    distinct, in the narrowest of int16, int32 and int64 that holds every
    beam id."""
    rows = list(map(tuple, pairs.tolist()))
    ids = scenario.beam_ids()
    assert pairs.dtype == narrowest_int(min(ids), max(ids)) and pairs.shape == (len(rows), 2)
    assert rows == sorted(set(rows)) and all(i < j for i, j in rows)
    return frozenset(rows)


def assert_pipeline_matches_reference(scenario):
    routing = routed_or_error(route_beams, scenario)
    assert routing == routed_or_error(ref_route_beams, scenario)
    if isinstance(routing, dict):
        assert list(routing) == list(ref_route_beams(scenario))
        intra = derive_intra_pairs(scenario, route_beams(scenario))
        assert pair_set(intra, scenario) == ref_derive_intra_pairs(scenario, routing)
    assert pair_set(derive_inter_pairs(scenario), scenario) == ref_derive_inter_pairs(scenario)


@pytest.fixture(scope="module")
def m_scenario():
    """M: 500 users in the +-30 deg band, 443 beams."""
    params = GenerationParams(lat_band_deg=(-30.0, 30.0))
    scenario = generate_synthetic(seed=7, n_users=500, grid=GRID, geometry=GEOM, params=params)
    assert scenario.beams == ref_generate_beams(7, 500, params)
    return scenario


def test_large_case_matches_reference():
    scenario = generate_synthetic(seed=7, n_users=100, grid=GRID, geometry=GEOM)
    assert scenario.beams == ref_generate_beams(7, 100)
    assert len(scenario.beams) == 98
    assert_pipeline_matches_reference(scenario)
    restrictions = derive_restrictions(scenario)
    assert (len(restrictions.pairs["intra"]), len(restrictions.pairs["inter"])) == (1315, 6)


def test_m_scenario_matches_reference(m_scenario):
    assert len(m_scenario.beams) == 443
    assert_pipeline_matches_reference(m_scenario)


def test_beam_ids_in_any_order_match_reference():
    base = generate_synthetic(seed=7, n_users=100, grid=GRID, geometry=GEOM)
    new_ids = np.random.default_rng(5).permutation(len(base.beams)) * 7 + 300
    beams = tuple(replace(b, id=int(i)) for b, i in zip(base.beams, new_ids))
    assert_pipeline_matches_reference(replace(base, beams=beams))


def test_every_decision_through_the_scalar_fallback_matches(monkeypatch):
    # a guard band wider than any angle sends every threshold decision and
    # every beam's routing to the scalar recomputation
    monkeypatch.setattr(scenario_mod, "_GUARD_DEG", 1e9)
    params = GenerationParams(lat_band_deg=(-30.0, 30.0))
    scenario = generate_synthetic(seed=4, n_users=40, grid=GRID, geometry=GEOM, params=params)
    assert scenario.beams == ref_generate_beams(4, 40, params)
    assert_pipeline_matches_reference(scenario)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(1, 40),
    band=st.sampled_from([5.0, 30.0, 60.0]),
    n_s=st.sampled_from([1, 2, 7]),
    altitude_km=st.sampled_from([1200.0, 8062.0, 35786.0]),
    step_min=st.sampled_from([0.5, 1.0, 2.5, 7.0]),
    n_steps=st.integers(1, 12),
    half_cone_deg=st.sampled_from([0.5, 1.0, 3.0, 10.0]),
    interference_multiplier=st.sampled_from([2.0, 4.0]),
    min_elevation_deg=st.sampled_from([0.0, 10.0, 30.0]),
)
def test_small_scenarios_match_reference(
    seed, n_users, band, n_s, altitude_km, step_min, n_steps,
    half_cone_deg, interference_multiplier, min_elevation_deg,
):
    params = GenerationParams(lat_band_deg=(-band, band))
    scenario = replace(
        generate_synthetic(
            seed=seed, n_users=n_users, grid=GRID,
            geometry=ConstellationGeometry(n_s=n_s, altitude_km=altitude_km), params=params,
            horizon_min=step_min * n_steps + step_min / 3, step_min=step_min, half_cone_deg=half_cone_deg,
        ),
        interference_multiplier=interference_multiplier, min_elevation_deg=min_elevation_deg,
    )
    assert scenario.beams == ref_generate_beams(seed, n_users, params, half_cone_deg)
    assert_pipeline_matches_reference(scenario)


def _users(seed, n_users, lat_band, lon_range):
    rng = np.random.default_rng(seed)
    return rng.uniform(*lat_band, n_users), np.mod(rng.uniform(*lon_range, n_users), 360.0)


@pytest.mark.parametrize(
    "lats, lons, half_cone_deg",
    [
        pytest.param(*_users(3, 600, (-3.0, 3.0), (0.0, 360.0)), 1.0, id="dense-narrow-band"),
        # the last users sit on the pole itself, at different longitudes
        pytest.param(
            *(np.append(a, [90.0, 90.0, 89.99]) for a in _users(4, 300, (84.0, 90.0), (0.0, 360.0))),
            1.0, id="polar-cap",
        ),
        pytest.param(
            *(np.append(a, b) for a, b in zip(_users(5, 300, (-8.0, 8.0), (-6.0, 6.0)), ([0.0, 0.0], [0.0, 359.5]))),
            1.0, id="seam",
        ),
        pytest.param(*_users(6, 150, (-90.0, 90.0), (0.0, 360.0)), 60.0, id="half-cone-60"),
        pytest.param(*_users(7, 150, (-90.0, 90.0), (0.0, 360.0)), 90.0, id="half-cone-90"),
        pytest.param(*_users(8, 150, (-90.0, 90.0), (0.0, 360.0)), 135.0, id="half-cone-135"),
    ],
)
def test_cell_bucketed_clustering_matches_reference(lats, lons, half_cone_deg):
    assert _cluster_users(lats, lons, half_cone_deg) == ref_cluster_users(lats, lons, half_cone_deg)


def test_clustering_in_many_blocks_matches_reference(monkeypatch):
    # blocks of about 8 user pairs put most users' pairs in a block of their own
    monkeypatch.setattr(scenario_mod, "_BLOCK_ELEMENTS", 8)
    lats, lons = _users(9, 400, (-5.0, 5.0), (0.0, 40.0))
    assert _cluster_users(lats, lons, 1.0) == ref_cluster_users(lats, lons, 1.0)


@pytest.mark.parametrize("neighbour_block", [1, 7, 64])
def test_neighbour_lookup_in_blocks_yields_the_same_pairs(neighbour_block, monkeypatch):
    """The cell lookup of _earlier_neighbours goes a block of points at a
    time; any block size yields the same blocks of pairs, in the same
    order, as one block of all points."""
    lats, lons = _users(10, 500, (-4.0, 4.0), (0.0, 60.0))
    trig = scenario_mod._trig(lats, lons)

    def blocks():
        return [(lo, hi, us.tolist(), vs.tolist()) for lo, hi, us, vs in scenario_mod._earlier_neighbours(*trig, 2.0)]

    monkeypatch.setattr(scenario_mod, "_NEIGHBOUR_BLOCK", len(lats))
    want = blocks()
    monkeypatch.setattr(scenario_mod, "_NEIGHBOUR_BLOCK", neighbour_block)
    assert blocks() == want and sum(len(us) for _, _, us, _ in want) > len(lats)


def horizon_angle_deg(altitude_km, min_elevation_deg):
    """Central angle at which a satellite sits at the minimum elevation:
    90 deg - e - nadir angle, sin(nadir) = cos(e) R / (R + h)."""
    ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)
    e = math.radians(min_elevation_deg)
    return 90.0 - min_elevation_deg - math.degrees(math.asin(ratio * math.cos(e)))


@settings(max_examples=80, deadline=None)
@given(
    n_s=st.integers(1, 8),
    altitude_km=st.sampled_from([550.0, 1200.0, 8062.0, 35786.0]),
    min_elevation_deg=st.floats(0.0, 60.0),
    step_min=st.sampled_from([0.5, 3.0, 11.0]),
    n_steps=st.integers(1, 5),
    edge_beams=st.lists(
        st.tuples(st.integers(0, 7), st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0])), max_size=10,
    ),
    seed=st.integers(0, 10_000),
    n_random=st.integers(0, 10),
)
def test_routing_matches_reference_at_the_horizon_angle(
    n_s, altitude_km, min_elevation_deg, step_min, n_steps, edge_beams, seed, n_random,
):
    """Beams exactly at the horizon angle of a satellite at t = 0 (lat a
    fraction of the angle, the longitude offset that completes it), among
    random ones; some unroutable scenarios are expected."""
    geom = ConstellationGeometry(n_s=n_s, altitude_km=altitude_km)
    psi = horizon_angle_deg(altitude_km, min_elevation_deg)
    cos_psi = math.cos(math.radians(psi))
    spots = []
    for sat, frac, side in edge_beams:
        lat = frac * psi
        offset = math.degrees(math.acos(min(1.0, cos_psi / math.cos(math.radians(lat)))))
        spots.append((lat, (geom.subsatellite_lon(sat % n_s, 0.0) + side * offset) % 360.0))
    rng = np.random.default_rng(seed)
    spots += zip(rng.uniform(-psi, psi, n_random).tolist(), rng.uniform(0.0, 360.0, n_random).tolist())
    if not spots:
        spots = [(0.0, 0.0)]
    beams = tuple(Beam(id=k, lat=lat, lon=lon) for k, (lat, lon) in enumerate(spots, 1))
    s = Scenario(grid=GRID, beams=beams, geometry=geom, horizon_min=step_min * n_steps,
                 step_min=step_min, min_elevation_deg=min_elevation_deg)
    assert routed_or_error(route_beams, s) == routed_or_error(ref_route_beams, s)


@pytest.mark.parametrize("altitude_km", [1200.0, 8062.0, 35786.0])
@pytest.mark.parametrize("n_s", [1, 2, 3, 4, 5, 7, 12, 24])
def test_routing_over_the_nearest_in_longitude_matches_reference(n_s, altitude_km):
    """route_beams evaluates the satellite nearest in longitude and its two
    neighbours (all satellites up to 3): it routes as ref_route_beams, or
    raises its RoutingError, with beams exactly halfway between two
    satellites at step 0 (at the equator and off it) among random ones,
    near the satellites' tracks and anywhere, over 0.01 and 40 minutes.
    The beams within a satellite's horizon at step 0 are also routed alone,
    which no satellite can leave in 0.01 minutes."""
    geom = ConstellationGeometry(n_s=n_s, altitude_km=altitude_km)
    rng = np.random.default_rng(n_s * 1000 + int(altitude_km))
    for min_elevation_deg in (0.0, 10.0):
        psi = horizon_angle_deg(altitude_km, min_elevation_deg)
        sats = [geom.subsatellite_lon(s, 0.0) for s in range(n_s)]
        spots = [(lat, (lon + geom.spacing_deg / 2) % 360.0) for lon in sats for lat in (0.0, float(rng.uniform(-psi, psi)))]
        spots += [
            (float(rng.uniform(-psi, psi) / 2), (sats[int(rng.integers(n_s))] + float(rng.uniform(-psi, psi) / 2)) % 360.0)
            for _ in range(20)
        ]
        spots += zip(rng.uniform(-80.0, 80.0, 10).tolist(), rng.uniform(0.0, 360.0, 10).tolist())
        beams = tuple(Beam(id=k, lat=lat, lon=lon) for k, (lat, lon) in enumerate(spots, 1))
        seen = tuple(b for b in beams if min(central_angle_deg(b.lat, b.lon, 0.0, lon) for lon in sats) < psi - 0.1)
        for subset, step_min, horizon_min in ((beams, 0.01, 0.01), (beams, 4.0, 40.0), (seen, 0.01, 0.01)):
            s = Scenario(grid=GRID, beams=subset, geometry=geom, horizon_min=horizon_min, step_min=step_min,
                         min_elevation_deg=min_elevation_deg)
            routing = routed_or_error(route_beams, s)
            assert routing == routed_or_error(ref_route_beams, s)
            if subset is seen:
                assert isinstance(routing, dict)


def test_routing_in_many_blocks_matches_reference(monkeypatch):
    # blocks of about 8 angles put each step in a block of its own, so the
    # unroutable beam is found in a later block than the first
    monkeypatch.setattr(scenario_mod, "_BLOCK_ELEMENTS", 8)
    params = GenerationParams(lat_band_deg=(-30.0, 30.0))
    routable = generate_synthetic(seed=7, n_users=60, grid=GRID, geometry=GEOM, params=params, horizon_min=20.0)
    assert routed_or_error(route_beams, routable) == ref_route_beams(routable)
    geom = ConstellationGeometry(n_s=1, altitude_km=8062.0)
    beams = (Beam(id=5, lat=0.0, lon=10.0), Beam(id=9, lat=0.0, lon=318.0), Beam(id=3, lat=0.0, lon=317.0))
    unroutable = Scenario(grid=GRID, beams=beams, geometry=geom, horizon_min=30.0, step_min=1.0)
    expected = routed_or_error(ref_route_beams, unroutable)
    assert expected[0] == 3 and expected[1] > 0.0
    assert routed_or_error(route_beams, unroutable) == expected


def beams_at(lats, lons, ids=None):
    ids = range(1, len(lats) + 1) if ids is None else ids
    return tuple(Beam(id=int(i), lat=float(lat), lon=float(lon)) for i, lat, lon in zip(ids, lats, lons))


@pytest.mark.parametrize("block_elements", [scenario_mod._BLOCK_ELEMENTS, 8])
@pytest.mark.parametrize(
    "lats, lons, half_cone_deg, ids",
    [
        # pairs across the 0/360 deg seam, with two beams on it
        pytest.param(
            *(np.append(a, b) for a, b in zip(_users(11, 150, (-6.0, 6.0), (-8.0, 8.0)), ([0.0, 1.0], [0.0, 359.0]))),
            1.0, None, id="seam",
        ),
        # the last beams sit on the poles themselves, at different longitudes
        pytest.param(
            *(np.append(a, b) for a, b in zip(_users(12, 150, (80.0, 90.0), (0.0, 360.0)),
                                               ([90.0, 90.0, -90.0, -89.5], [0.0, 123.0, 10.0, 190.0]))),
            1.5, None, id="poles",
        ),
        # a threshold of 180 deg: every pair but the antipodal ones
        pytest.param(
            *(np.append(a, b) for a, b in zip(_users(13, 60, (-90.0, 90.0), (0.0, 360.0)),
                                               ([0.0, 0.0, 30.0, -30.0], [0.0, 180.0, 45.0, 225.0]))),
            45.0, None, id="threshold-180",
        ),
        pytest.param(*_users(14, 60, (-90.0, 90.0), (0.0, 360.0)), 50.0, None, id="threshold-200"),
        # ids descending by position, so the kernel's pairs need sorting
        pytest.param(*_users(15, 200, (-10.0, 10.0), (0.0, 60.0)), 1.0, range(900, 700, -1), id="ids-descending"),
    ],
)
def test_inter_pairs_match_reference(lats, lons, half_cone_deg, ids, block_elements, monkeypatch):
    monkeypatch.setattr(scenario_mod, "_BLOCK_ELEMENTS", block_elements)
    s = Scenario(grid=GRID, beams=beams_at(lats, lons, ids), geometry=GEOM, half_cone_deg=half_cone_deg)
    expected = ref_derive_inter_pairs(s)
    assert expected  # the case has pairs to find
    assert pair_set(derive_inter_pairs(s), s) == expected


@pytest.mark.parametrize("block_elements", [scenario_mod._BLOCK_ELEMENTS, 8])
@pytest.mark.parametrize(
    "n_s, n_steps",
    [
        pytest.param(8, 8, id="64-bits"),
        pytest.param(4, 48, id="192-bits"),
        pytest.param(7, 61, id="427-bits"),
        pytest.param(3, 5, id="15-bits"),
        pytest.param(1, 4, id="one-satellite"),
        pytest.param(7, 1, id="one-step"),
    ],
)
def test_intra_pairs_match_reference(n_s, n_steps, block_elements, monkeypatch):
    """Random routings in which each beam moves to the next satellite now
    and then, over beam ids in shuffled order."""
    monkeypatch.setattr(scenario_mod, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(n_s * 100 + n_steps)
    n = 90
    lats, lons = _users(n_steps, n, (-10.0, 10.0), (0.0, 360.0))
    s = Scenario(grid=GRID, beams=beams_at(lats, lons, rng.permutation(n) * 3 + 10),
                 geometry=ConstellationGeometry(n_s=n_s, altitude_km=8062.0))
    moves = np.cumsum(rng.random((n_steps, n)) < 0.1, axis=0)
    sat = (rng.integers(0, n_s, n) + moves) % n_s
    expected = ref_derive_intra_pairs(s, {t: dict(zip(s.beam_ids(), row)) for t, row in enumerate(sat.tolist())})
    if n_s == 1:
        assert len(expected) == n * (n - 1) // 2
    assert pair_set(derive_intra_pairs(s, sat), s) == expected


@pytest.mark.parametrize("block_elements", [1, 8, 200])
def test_intra_pairs_in_small_blocks_equal_the_default_blocks(block_elements, monkeypatch):
    """With ids ascending by position, as generated, the blocks' pairs are
    written in order and come out canonical without a sort: any block size
    gives the same array as the default."""
    rng = np.random.default_rng(block_elements)
    n, n_s, n_steps = 90, 7, 12
    lats, lons = _users(16, n, (-10.0, 10.0), (0.0, 360.0))
    s = Scenario(grid=GRID, beams=beams_at(lats, lons, np.arange(n) * 3 + 10), geometry=GEOM)
    sat = (rng.integers(0, n_s, n) + np.cumsum(rng.random((n_steps, n)) < 0.1, axis=0)) % n_s
    want = derive_intra_pairs(s, sat)
    monkeypatch.setattr(scenario_mod, "_BLOCK_ELEMENTS", block_elements)
    got = derive_intra_pairs(s, sat)
    assert len(want) and got.dtype == want.dtype == np.int16 and np.array_equal(got, want)


def test_intra_pairs_over_int16_and_int64_routing_are_equal(m_scenario):
    """route_beams' int16 array and the same array cast to int64 give the
    same pair array, dtype and bytes."""
    sat = route_beams(m_scenario)
    assert sat.dtype == np.int16
    want = derive_intra_pairs(m_scenario, sat)
    got = derive_intra_pairs(m_scenario, sat.astype(np.int64))
    assert len(want) == 27686 and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "n_users, band, digests",
    [
        pytest.param(
            2000, 30.0,
            {"intra": "9ea5937e6a1ba16b4bc8ba205e745449b704751753762e6f3d2496af57dd1bce",
             "inter": "e2d85d0b67be199423e9877224c3f395d37a1e53c60edf42f357a007ea662890",
             "csr": "52aad3f117972ea70a73ff6786dc17a5e3fe059a54f515bbbf0b74ba018deced"},
            id="2000-users-30deg",
        ),
        pytest.param(
            100, 50.0,
            {"intra": "12c8e89893812356be2f5eef7712448eff1f358aacb689ea36bf11fabf9a3b9c",
             "inter": "b9970731213d9bfc4c484982523bfe3f79ddf11191d7bbe46db2601eb5eb0da5",
             "csr": "7bd62c4e6a3533f419b9397a57cd3ee459599c56f95f4f0f409701bfcee1b2a5"},
            id="100-users-50deg",
        ),
    ],
)
def test_benchmark_scenarios_derive_pinned_pair_arrays(n_users, band, digests):
    """The seed-7 scenarios of the two iterative benchmark workloads derive
    exactly these pair arrays, int16 as their ids fit in it, and partner CSR
    (SHA-256 of the pairs' bytes as int64, the CSR's indptr then its int16
    indices' bytes as int32), not only as many."""
    params = GenerationParams(lat_band_deg=(-band, band))
    scenario = generate_synthetic(seed=7, n_users=n_users, grid=GRID, geometry=GEOM, params=params)
    restrictions = derive_restrictions(scenario)
    assert all(pairs.dtype == np.int16 for pairs in restrictions.pairs.values())
    got = {
        kind: hashlib.sha256(pairs.astype(np.int64).tobytes()).hexdigest() for kind, pairs in restrictions.pairs.items()
    }
    indptr, indices = restrictions.partners(np.array(sorted(scenario.beam_ids())))
    assert indptr.dtype == np.int64 and indices.dtype == np.int16
    got["csr"] = hashlib.sha256(indptr.tobytes() + indices.astype(np.int32).tobytes()).hexdigest()
    assert got == digests


class TestNearTies:
    def test_users_exactly_two_half_cones_apart_share_a_cluster(self):
        lats, lons = [0.0, 0.0], [0.0, 2.0]
        sep = central_angle_deg(0.0, 0.0, 0.0, 2.0)
        at_threshold = _cluster_users(lats, lons, sep / 2.0)
        assert at_threshold == ref_cluster_users(lats, lons, sep / 2.0) == [[0, 1]]
        below = math.nextafter(sep, 0.0) / 2.0
        assert _cluster_users(lats, lons, below) == ref_cluster_users(lats, lons, below) == [[0], [1]]

    def test_user_joins_the_first_cluster_all_of_whose_members_are_close(self):
        # user 3 is close to user 1 but not to user 0, so it joins user 2
        lats, lons = [0.0] * 4, [0.0, 1.5, 5.0, 3.4]
        expected = ref_cluster_users(lats, lons, 1.0)
        assert expected == [[0, 1], [2, 3]]
        assert _cluster_users(lats, lons, 1.0) == expected

    def test_many_user_pairs_exactly_at_the_cluster_threshold(self):
        # numpy's arccos differs from math.acos on some of these angles
        rng = np.random.default_rng(0)
        for _ in range(200):
            lats, lons = rng.uniform(-60, 60, 2).tolist(), rng.uniform(0, 360, 2).tolist()
            sep = central_angle_deg(lats[1], lons[1], lats[0], lons[0])
            assert _cluster_users(lats, lons, sep / 2.0) == [[0, 1]]

    def test_many_pairs_exactly_at_the_inter_threshold(self):
        rng = np.random.default_rng(1)
        beams = tuple(
            Beam(id=i, lat=float(lat), lon=float(lon))
            for i, (lat, lon) in enumerate(zip(rng.uniform(-60, 60, 200), rng.uniform(0, 360, 200)), 1)
        )
        for a, b in zip(beams[::2], beams[1::2]):
            sep = central_angle_deg(a.lat, a.lon, b.lat, b.lon)
            s = Scenario(grid=GRID, beams=(a, b), geometry=GEOM, half_cone_deg=sep / 4.0)
            assert pair_set(derive_inter_pairs(s), s) == frozenset()

    def test_pair_exactly_at_the_inter_threshold_is_not_restricted(self):
        beams = (Beam(id=1, lat=0.0, lon=0.0), Beam(id=2, lat=0.0, lon=4.0), Beam(id=3, lat=0.0, lon=7.5))
        sep = central_angle_deg(0.0, 0.0, 0.0, 4.0)
        for half_cone, expected in ((sep / 4.0, {(2, 3)}), (math.nextafter(sep, 10.0) / 4.0, {(1, 2), (2, 3)})):
            s = Scenario(grid=GRID, beams=beams, geometry=GEOM, half_cone_deg=half_cone)
            assert pair_set(derive_inter_pairs(s), s) == ref_derive_inter_pairs(s) == frozenset(expected)

    def test_beam_equidistant_from_two_satellites_takes_the_lower_index(self):
        # four satellites at 0, 90, 180, 270 deg at t=0; the beam at 45 deg
        # is exactly as far from satellite 0 as from satellite 1
        geom = ConstellationGeometry(n_s=4, altitude_km=8062.0)
        beam = Beam(id=1, lat=0.0, lon=45.0)
        assert central_angle_deg(0.0, 45.0, 0.0, 0.0) == central_angle_deg(0.0, 45.0, 0.0, 90.0)
        s = Scenario(grid=GRID, beams=(beam,), geometry=geom, horizon_min=1.0, step_min=1.0)
        routing = routed_or_error(route_beams, s)
        assert routing == ref_route_beams(s)
        assert routing[0.0] == {1: 0}

    def test_beams_within_ulps_of_equidistant_match_reference(self):
        # near-ties between satellites 0 and 1, where an ulp of arccos can
        # reorder the two angles
        geom = ConstellationGeometry(n_s=4, altitude_km=8062.0)
        rng = np.random.default_rng(2)
        beams = tuple(
            Beam(id=i, lat=float(lat), lon=45.0 + k * 1e-14)
            for i, (lat, k) in enumerate(zip(rng.uniform(-20, 20, 300), rng.integers(-4, 5, 300)), 1)
        )
        s = Scenario(grid=GRID, beams=beams, geometry=geom, horizon_min=1.0, step_min=1.0)
        assert routed_or_error(route_beams, s) == ref_route_beams(s)

    def test_many_beams_exactly_at_the_minimum_elevation(self):
        geom = ConstellationGeometry(n_s=1, altitude_km=8062.0)
        rng = np.random.default_rng(3)
        for lat, lon in zip(rng.uniform(-40, 40, 100), rng.uniform(-40, 40, 100)):
            beam = Beam(id=1, lat=float(lat), lon=float(lon) % 360.0)
            edge = elevation_deg(central_angle_deg(beam.lat, beam.lon, 0.0, 0.0), geom.altitude_km)
            s = Scenario(grid=GRID, beams=(beam,), geometry=geom, horizon_min=0.5, step_min=0.5,
                         min_elevation_deg=edge)
            assert routed_or_error(route_beams, s) == routed_or_error(ref_route_beams, s)
            assert routed_or_error(route_beams, s) != (1, 0.0)  # visible at t=0

    def test_beam_at_the_minimum_elevation_edge(self):
        geom = ConstellationGeometry(n_s=1, altitude_km=8062.0)
        beams = (Beam(id=1, lat=0.0, lon=350.0), Beam(id=2, lat=0.0, lon=40.0))
        edge = elevation_deg(central_angle_deg(0.0, 40.0, 0.0, 0.0), geom.altitude_km)
        visible = Scenario(grid=GRID, beams=beams, geometry=geom, horizon_min=0.5, step_min=0.5,
                           min_elevation_deg=edge)
        assert routed_or_error(route_beams, visible) == ref_route_beams(visible)
        assert ref_route_beams(visible) == {0.0: {1: 0, 2: 0}, 0.5: {1: 0, 2: 0}}
        hidden = Scenario(grid=GRID, beams=beams, geometry=geom, horizon_min=0.5, step_min=0.5,
                          min_elevation_deg=math.nextafter(edge, 90.0))
        assert routed_or_error(route_beams, hidden) == routed_or_error(ref_route_beams, hidden) == (2, 0.0)

    def test_unroutable_beam_names_the_first_step_then_the_first_beam(self):
        # one satellite drifting east: the beams west of it drop below the
        # minimum elevation after some minutes, the farther one first
        geom = ConstellationGeometry(n_s=1, altitude_km=8062.0)
        beams = (Beam(id=5, lat=0.0, lon=10.0), Beam(id=9, lat=0.0, lon=318.0), Beam(id=3, lat=0.0, lon=317.0))
        s = Scenario(grid=GRID, beams=beams, geometry=geom, horizon_min=30.0, step_min=1.0)
        expected = routed_or_error(ref_route_beams, s)
        assert isinstance(expected, tuple) and expected[1] > 0.0 and expected[0] == 3
        assert routed_or_error(route_beams, s) == expected


def traced_memory(fn):
    """fn(), and the bytes of traced allocation it kept and at its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


def test_derive_restrictions_peak_memory_is_bounded(m_scenario):
    """Peak traced allocation while deriving M's pairs, beyond the routing
    array it reads (0.22 MB), stays below one beams x beams float64 array
    (1.57 MB at 443 beams), so a full angle array and its temporaries would
    not fit."""
    _, routing, _ = traced_memory(lambda: route_beams(m_scenario))
    restrictions, kept, peak = traced_memory(lambda: derive_restrictions(m_scenario))
    n = len(m_scenario.beams)
    print(f"derive_restrictions on M: peak {peak} B, kept {kept} B, routing {routing} B")
    assert len(restrictions.pairs["intra"]) == 27686
    assert peak < routing + 8 * n * n


def test_partner_csr_and_intra_pairs_peak_memory_is_bounded():
    """On l_pipeline's 1,312-beam scenario both builds fill their
    preallocated output a block at a time: the int16 intra pairs peak at no
    more than 1.6x their bytes of traced allocation, 6.4 B a pair (the
    kernel's words and each block's upper triangle packed 8 cells a byte,
    then one unpacked block beside the output), the partner CSR at no more
    than 2x its own (one block's positions and placement). Keeping every
    block's int16 positions until the ids were written took 2.2x; int64
    pairs were bounded at 1.75x, 28 B a pair, and concatenating int64
    blocks took 2.0x of those, 32 B a pair, and concatenating and sorting
    all four CSR segments 5.0x."""
    scenario = benchmark_scenario("l_pipeline")
    sat = route_beams(scenario)
    intra, _, peak = traced_memory(lambda: derive_intra_pairs(scenario, sat))
    print(f"derive_intra_pairs: peak {peak} B for {intra.nbytes} B of pairs")
    assert len(intra) == 242537 and intra.dtype == np.int16 and peak <= 1.6 * intra.nbytes
    restrictions = RestrictionSets(intra, derive_inter_pairs(scenario))
    ids = np.array(sorted(scenario.beam_ids()), dtype=np.int64)
    (indptr, indices), _, peak = traced_memory(lambda: restrictions.partners(ids))
    print(f"partners: peak {peak} B for {indptr.nbytes + indices.nbytes} B of CSR")
    assert len(indices) == 2 * (242537 + 1697) and peak <= 2 * (indptr.nbytes + indices.nbytes)


def test_non_canonical_arrays_are_canonicalized_as_lists_are():
    """l_pipeline's intra pairs, a tenth of them repeated, shuffled and a
    third of the rows flipped: canonical_pairs gives the list path's pairs
    by value, in the array's int16, from a copy; with two reflexive rows,
    both raise the list path's message for the first in input order."""
    scenario = benchmark_scenario("l_pipeline")
    want = derive_intra_pairs(scenario, route_beams(scenario))
    rng = np.random.default_rng(34)
    mixed = np.concatenate((want, want[rng.choice(len(want), len(want) // 10)]))
    mixed = mixed[rng.permutation(len(mixed))]
    flip = rng.random(len(mixed)) < 1 / 3
    mixed[flip] = mixed[flip, ::-1]
    got = model.canonical_pairs(mixed)
    assert got.dtype == np.int16 and not np.shares_memory(got, mixed)
    assert got.tolist() == model.canonical_pairs(mixed.tolist()).tolist() == want.tolist()
    mixed[200], mixed[9000] = mixed[200, 0], mixed[9000, 1]  # two reflexive rows
    first = mixed[200, 0].item()
    assert first != mixed[9000, 0]
    messages = []
    for given_pairs in (mixed, mixed.tolist()):
        with pytest.raises(DomainError, match=r"^restriction pair \((\d+), \1\) is reflexive$") as err:
            model.canonical_pairs(given_pairs)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == f"restriction pair ({first}, {first}) is reflexive"


@pytest.mark.parametrize("block_pairs", [None, 7])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_canonical_check_sees_a_row_out_of_order_at_a_block_edge(edge, block_pairs, monkeypatch):
    """Rows (k, k + 1) with row _BLOCK_PAIRS + edge replaced by the first:
    that row is out of order only against the row before it, which for
    edge 0 ends the block before. The check does not pass the array, which
    comes back as the list path's pairs, in its int32."""
    if block_pairs is not None:
        monkeypatch.setattr(model, "_BLOCK_PAIRS", block_pairs)
    n = 2 * model._BLOCK_PAIRS + 3
    pairs = np.column_stack((np.arange(n), np.arange(1, n + 1))).astype(np.int32)
    assert np.shares_memory(model.canonical_pairs(pairs), pairs)  # canonical: passed as it is
    pairs[model._BLOCK_PAIRS + edge] = pairs[0]
    got = model.canonical_pairs(pairs)
    assert got.dtype == np.int32 and not np.shares_memory(got, pairs)
    assert got.tolist() == model.canonical_pairs(pairs.tolist()).tolist() and len(got) == n - 1

def random_plan(rng, beams, grid):
    """Assignments mostly in the grid, some inactive and some out of domain
    (first slot or row below 1, width 0, past the last slot)."""
    out = {}
    for beam in beams:
        if rng.random() < 0.2:
            out[beam.id] = Assignment.inactive()
            continue
        f = int(rng.integers(1, grid.n_bw + 1))
        g = int(rng.integers(1, grid.n_rows + 1))
        b = int(rng.integers(1, 4))
        if rng.random() < 0.05:
            f, g, b = (int(rng.integers(-1, 1)), g, b) if rng.random() < 0.5 else (f, g, 0)
        if rng.random() < 0.03:
            g = grid.n_rows + 1
        if rng.random() < 0.02:
            g = 0
        out[beam.id] = Assignment(f, g, b)
    return FrequencyPlan(out)


def outcome(validate, *args):
    try:
        return validate(*args)
    except DomainError as exc:
        return (type(exc), str(exc))


# 0 sends every pair set through the array filter; the default sends these
# small sets through the pair-by-pair check
ARRAY_MIN_PAIRS = [0, model._ARRAY_MIN_PAIRS]


def assert_validate_plan_matches_reference(rng, n_p, cases):
    for _ in range(cases):
        grid = FrequencyGrid(n_bw=int(rng.integers(2, 9)), n_fr=int(rng.integers(1, 4)), n_p=n_p)
        ids = rng.choice(np.arange(1, 60), size=int(rng.integers(2, 12)), replace=False).tolist()
        beams = [
            Beam(id=i, min_slots=int(rng.integers(1, 3)),
                 allowed_rows=(1, grid.n_rows - 1) if grid.n_rows > 1 and rng.random() < 0.2 else None)
            for i in ids
        ]
        pairs = [(i, j) for i in ids for j in ids if i < j]
        intra = [p for p in pairs if rng.random() < 0.4]
        inter = [p for p in pairs if rng.random() < 0.4]
        restrictions = RestrictionSets.of(intra=intra, inter=inter)
        plan = random_plan(rng, beams, grid)
        got = outcome(validate_plan, plan, grid, restrictions, beams)
        assert got == outcome(ref_validate_plan, plan, grid, restrictions, beams)


@pytest.mark.parametrize("array_min_pairs", ARRAY_MIN_PAIRS)
@pytest.mark.parametrize("n_p", [1, 2])
def test_validate_plan_matches_pairwise_reference(n_p, array_min_pairs, monkeypatch):
    monkeypatch.setattr(model, "_ARRAY_MIN_PAIRS", array_min_pairs)
    assert_validate_plan_matches_reference(np.random.default_rng(n_p), n_p, 150)


@pytest.mark.parametrize("block_pairs", [1, 7])
def test_validate_plan_in_pair_blocks_matches_reference(block_pairs, monkeypatch):
    # every pair set through the array filter, in blocks that split it
    monkeypatch.setattr(model, "_ARRAY_MIN_PAIRS", 0)
    monkeypatch.setattr(model, "_BLOCK_PAIRS", block_pairs)
    assert_validate_plan_matches_reference(np.random.default_rng(block_pairs), 2, 60)


@pytest.mark.parametrize("array_min_pairs", ARRAY_MIN_PAIRS)
def test_validate_plan_raises_like_the_pairwise_loop(array_min_pairs, monkeypatch):
    monkeypatch.setattr(model, "_ARRAY_MIN_PAIRS", array_min_pairs)
    grid = FrequencyGrid(n_bw=4, n_fr=1, n_p=2)
    beams = [Beam(id=1), Beam(id=2)]
    plan = FrequencyPlan({1: Assignment(1, 0, 1), 2: Assignment(1, 2, 1)})
    # a row below 1 is a domain violation under either pair kind; row 0
    # shares polarization 0 with row 2, so the inter pair overlaps too
    for restrictions, overlap in (
        (RestrictionSets.of(intra=[(1, 2)]), []),
        (RestrictionSets.of(inter=[(1, 2)]), [Violation("inter-overlap", (1, 2), "polarization 0 shared slots")]),
    ):
        got = validate_plan(plan, grid, restrictions, beams)
        assert got == ref_validate_plan(plan, grid, restrictions, beams)
        assert got == [Violation("domain", (1,), "g=0 outside rows [1,2]")] + overlap
    # a pair naming a beam the plan lacks fails on the first such pair
    unknown = RestrictionSets.of(intra=[(2, 7), (1, 9)])
    error = (DomainError, "intra pair (1, 9) references unknown beam")
    assert outcome(validate_plan, plan, grid, unknown, beams) == error
    assert outcome(ref_validate_plan, plan, grid, unknown, beams) == error


@pytest.mark.parametrize("shift, dtype", [
    (0, np.int16),
    (2**15 - 99, np.int16),  # the largest id, 98, becomes 2**15 - 1
    (2**15 - 98, np.int32),  # ... 2**15
    (-2**15 - 1, np.int16),  # the smallest id, 1, becomes -2**15
    (-2**15 - 2, np.int32),  # ... -2**15 - 1
    (2**31 - 99, np.int32),  # the largest id, 98, becomes 2**31 - 1
    (2**31 - 98, np.int64),  # ... 2**31
    (-2**31 - 1, np.int32),  # the smallest id, 1, becomes -2**31
    (-2**31 - 2, np.int64),  # ... -2**31 - 1
    (2**40, np.int64),
])
def test_pairs_take_the_narrowest_type_that_holds_every_id(shift, dtype, monkeypatch):
    """The acceptance large_case (ids 1..98) with every beam id shifted:
    its pairs derive as int16 while every id fits in it, as int32 past
    +-2**15 and as int64 past +-2**31, with the same pairs by value, the
    same partner CSR bytes, the same validate_plan result through the array
    filter and pair by pair, and the same LP text but for the ids in its
    names. Int64 copies of the int16 pairs give the same LP bytes."""
    base = generate_synthetic(seed=7, n_users=100, grid=GRID, geometry=GEOM)
    assert sorted(base.beam_ids()) == list(range(1, 99))
    moved = replace(base, beams=tuple(replace(b, id=b.id + shift) for b in base.beams))
    want, got = derive_restrictions(base), derive_restrictions(moved)
    for kind, pairs in got.pairs.items():
        assert want.pairs[kind].dtype == np.int16 and pairs.dtype == dtype
        assert (pairs.astype(np.int64) - shift).tolist() == want.pairs[kind].tolist()

    def csr(scenario, restrictions):
        ids = np.array(sorted(scenario.beam_ids()), dtype=np.int64)
        return b"".join(array.tobytes() for array in restrictions.partners(ids))

    assert csr(moved, got) == csr(base, want)
    plan = random_plan(np.random.default_rng(3), base.beams, GRID)
    moved_plan = FrequencyPlan({i + shift: a for i, a in plan.assignments.items()})
    for array_min_pairs in ARRAY_MIN_PAIRS:
        monkeypatch.setattr(model, "_ARRAY_MIN_PAIRS", array_min_pairs)
        violations = validate_plan(plan, GRID, want, base.beams)
        assert {v.kind for v in violations} >= {"intra-overlap", "domain"}
        assert validate_plan(moved_plan, GRID, got, moved.beams) == [
            replace(v, beams=tuple(i + shift for i in v.beams)) for v in violations
        ]
    text = emit_lp(build_full_model(base, want, ObjectiveWeights()))
    as_int64 = RestrictionSets(*(pairs.astype(np.int64) for pairs in want.pairs.values()))
    assert emit_lp(build_full_model(base, as_int64, ObjectiveWeights())) == text
    moved_text = emit_lp(build_full_model(moved, got, ObjectiveWeights()))
    assert re.sub(r"(?<=_)-?\d+", lambda m: str(int(m.group()) - shift), moved_text) == text


@pytest.mark.parametrize("n, dtype", [(16383, np.int16), (16384, np.int32)])
def test_partner_csr_indices_hold_twice_the_id_count(n, dtype):
    """CSR entries run up to 2n - 1 (an inter partner is n + j), so they are
    int16 up to 16,383 ids and int32 from 16,384; positions of the same ids
    are int16 either way."""
    ids = np.arange(1, n + 1, dtype=np.int64)
    pairs = np.array([[1, n]])
    restrictions = RestrictionSets(intra=pairs, inter=pairs)
    indptr, indices = restrictions.partners(ids)
    assert indptr.dtype == np.int64 and indices.dtype == dtype
    assert indices.tolist() == [n - 1, 2 * n - 1, 0, n]
    assert model.pair_positions(ids, pairs)[0].dtype == np.int16


def test_partners_over_20000_ids_do_not_wrap():
    """Over 20,000 ids the positions are int16 but n + j passes it: the
    partners of an inter pair between the last two ids equal an int64
    reference by value."""
    n = 20000
    ids = np.arange(n, dtype=np.int64) * 3 + 7  # gapped: searched, not offset
    intra = np.array([[ids[0], ids[-1]], [ids[5], ids[-2]]])
    inter = np.array([[ids[-2], ids[-1]]])
    indptr, indices = RestrictionSets(intra, inter).partners(ids)
    owner = np.array([0, 5, n - 1, n - 2, n - 2, n - 1])
    partner = np.array([n - 1, n - 2, 0, 5, 2 * n - 1, 2 * n - 2], dtype=np.int64)
    order = np.argsort(owner, kind="stable")
    assert indices.dtype == np.int32 and model.pair_positions(ids, intra)[0].dtype == np.int16
    assert indices.astype(np.int64).tolist() == partner[order].tolist()
    assert indptr.tolist() == np.append(0, np.cumsum(np.bincount(owner, minlength=n))).tolist()


def test_pipeline_builds_one_partner_csr_per_restriction_set(monkeypatch):
    """The warm start and the optimizer each build one PlanArrays over the
    same ids, and the optimizer's reuses the warm start's partner CSR, the
    only one of the run; iterations build none."""
    built, kept = [], []  # the length of the ids of each new CSR, and its indptr
    real_partners = RestrictionSets.partners

    def partners(self, ids):
        csr = real_partners(self, ids)
        if not any(csr[0] is indptr for indptr in kept):
            kept.append(csr[0])
            built.append(len(ids))
        return csr

    monkeypatch.setattr(RestrictionSets, "partners", partners)
    scenario = generate_synthetic(seed=7, n_users=100, grid=GRID, geometry=GEOM)
    restrictions = derive_restrictions(scenario)
    warm = greedy_warm_start(scenario, restrictions)
    optimize(scenario, restrictions, ObjectiveWeights(), warm_start=warm,
             config=IterationConfig(n_ch=10, max_iterations=3, seed=0))
    assert built == [98]
    # a plan over other ids gets its own CSR
    wider = replace(scenario, beams=scenario.beams + (Beam(id=10_000),))
    wider = iterative.PlanArrays(wider, restrictions, FrequencyPlan({**warm.assignments, 10_000: Assignment.inactive()}))
    assert built == [98, 99] and len(wider.indptr) == 100


def test_default_path_builds_one_plan_arrays_and_one_partner_csr(monkeypatch):
    """optimize without a start places the first fit in one all-inactive
    PlanArrays and iterates on it: no plan is loaded into arrays, and the
    run's only partner CSR is that one's."""
    built, loaded = [], []  # the ids of each new CSR; the plan of each new PlanArrays
    real_partners, real_init = RestrictionSets.partners, iterative.PlanArrays.__init__

    def partners(self, ids):
        csr = real_partners(self, ids)
        if not any(csr[0] is indptr for indptr, _ in built):
            built.append((csr[0], len(ids)))
        return csr

    def init(self, scenario, restrictions, plan=None):
        loaded.append(plan)
        real_init(self, scenario, restrictions, plan)

    monkeypatch.setattr(RestrictionSets, "partners", partners)
    monkeypatch.setattr(iterative.PlanArrays, "__init__", init)
    scenario = generate_synthetic(seed=7, n_users=100, grid=GRID, geometry=GEOM)
    restrictions = derive_restrictions(scenario)
    plan, trace = optimize(scenario, restrictions, ObjectiveWeights(),
                           config=IterationConfig(n_ch=10, max_iterations=3, seed=0))
    assert loaded == [None] and [n for _, n in built] == [98]
    assert trace.start.assignments == greedy_warm_start(scenario, restrictions).assignments


# SHA-256 of the beams the two iterative benchmark workloads generate: per
# beam, id, lat, lon and demand_bps as float64 bytes
BENCHMARK_BEAMS = {
    "s_iterate": (100, 50.0, "570ddeebeecc189b4200b241be5cf05c208d443ac99fd7f0d9e2c99398d88910"),
    "l_pipeline": (2000, 30.0, "1002e433a2a1eecdda7456615a8b2532354dcd365da0286829b609d71ac35606"),
}


def benchmark_scenario(name):
    n_users, band, _ = BENCHMARK_BEAMS[name]
    params = GenerationParams(lat_band_deg=(-band, band))
    return generate_synthetic(seed=7, n_users=n_users, grid=GRID, geometry=GEOM, params=params)


@pytest.mark.parametrize("name", sorted(BENCHMARK_BEAMS))
def test_benchmark_scenarios_generate_pinned_beams(name):
    beams = benchmark_scenario(name).beams
    rows = np.array([(b.id, b.lat, b.lon, b.demand_bps) for b in beams], dtype=np.float64)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == BENCHMARK_BEAMS[name][2]


def test_benchmark_power_tables_are_pinned():
    """l_pipeline's power tables, every beam's by_slots_dbw, then by_slots_w
    (float64 bytes) and by_slots_carried (bool bytes), in beam order."""
    tables = list(power_tables_for(benchmark_scenario("l_pipeline").beams, GRID, LinkBudget()).values())
    digest = hashlib.sha256()
    for column, dtype in (("by_slots_dbw", np.float64), ("by_slots_w", np.float64), ("by_slots_carried", bool)):
        digest.update(np.array([getattr(t, column) for t in tables], dtype=dtype).tobytes())
    assert digest.hexdigest() == "28ccd64a3d324f54c32bad002cbdcb6233e3d02ba47f37fada2efdf5ef0c32da"


def test_power_tables_match_beam_power_in_blocks(monkeypatch):
    """Blocks of 7 beams whose demands put gamma_req on, or an ulp either
    side of, a MODCOD's efficiency at some width, so the order of gamma's
    operations and the search's side decide; demand 0 and one that no width
    carries included (Beam rejects a NaN or negative demand)."""
    monkeypatch.setattr(power_mod, "_TABLE_BLOCK_BEAMS", 7)
    grid = FrequencyGrid(n_bw=12, n_fr=1, n_p=1, slot_bandwidth_hz=10e6)
    link = LinkBudget(rolloff=0.1)
    demands = [0.0, 1e12]
    for e in DEFAULT_MODCODS.entries:
        for b in range(1, grid.n_bw + 1):
            d = e.spectral_efficiency * (b * grid.slot_bandwidth_hz) / (1.0 + link.rolloff)
            demands += [math.nextafter(d, 0.0), d, math.nextafter(d, math.inf)]
    beams = [Beam(id=i, demand_bps=d) for i, d in enumerate(demands, 1)]
    tables = power_tables_for(beams, grid, link)
    for beam in beams:
        table = tables[beam.id]
        for b in range(1, grid.n_bw + 1):
            want = beam_power(beam.demand_bps, b * grid.slot_bandwidth_hz, link, DEFAULT_MODCODS, 1000.0)
            assert (table.value(1, b), table.watts(b), table.carries(b)) == (want.dbw, want.watts, want.feasible)


def test_size_grouped_reductions_equal_per_cluster_calls():
    """Pairwise summation changes its grouping at 8 and at 128 elements, so
    every cluster size from 1 to 300 is checked, with members interleaved
    across clusters and values of mixed magnitude."""
    rng = np.random.default_rng(0)
    sizes = rng.permutation(np.repeat(np.arange(1, 301), 2))
    order = rng.permutation(int(sizes.sum()))
    clusters = [sorted(c.tolist()) for c in np.split(order, np.cumsum(sizes)[:-1])]
    n = len(order)
    lats = rng.uniform(-50.0, 50.0, n)
    lons = rng.uniform(0.0, 360.0, n)
    demands = np.exp(rng.uniform(math.log(10e6), math.log(500e6), n)) * rng.choice([1.0, 1e-7, 1e9], n)
    got = scenario_mod._cluster_reductions(clusters, lats, lons, demands)
    want = [[float(np.mean(lats[c])) for c in clusters], [float(np.mean(lons[c])) for c in clusters],
            [float(np.sum(demands[c])) for c in clusters]]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    first=st.integers(-5, 40),
    count=st.integers(0, 30),
    gaps=st.lists(st.integers(1, 4), min_size=30, max_size=30),
    gapped=st.booleans(),
    pair_ids=st.lists(st.integers(-10, 200), max_size=60),
)
def test_pair_positions_match_searchsorted(first, count, gaps, gapped, pair_ids):
    """Contiguous and gapped ids; pair ids below, inside, between and above
    them."""
    steps = gaps[:count] if gapped else [1] * count
    ids = first + np.cumsum(np.array([0] + steps[1:], dtype=np.int64))[:count]
    pairs = np.array(pair_ids[: len(pair_ids) // 2 * 2], dtype=np.int64).reshape(-1, 2)
    at, found = model.pair_positions(ids, pairs)
    want = np.searchsorted(ids, pairs)
    assert at.dtype == narrowest_int(0, len(ids)) == np.int16 and at.shape == found.shape == pairs.shape
    assert (at == want).all()
    assert (found == np.isin(pairs, ids)).all()


@st.composite
def partner_cases(draw):
    """Sorted, distinct ids, contiguous or gapped, and pairs of each kind
    over them (either kind may be empty), at times naming an id outside
    them, at times with a pair of both kinds."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        ids = sorted(draw(st.sets(st.integers(-40, 40), min_size=n, max_size=n)))
    else:
        lo = draw(st.integers(-5, 5))
        ids = list(range(lo, lo + n))
    pool = ids + draw(st.lists(st.integers(-45, 45), max_size=2))
    size = 25 if len(set(pool)) > 1 else 0
    pair = st.tuples(st.sampled_from(pool or [0]), st.sampled_from(pool or [0])).filter(lambda p: p[0] != p[1])
    intra, inter = draw(st.lists(pair, max_size=size)), draw(st.lists(pair, max_size=size))
    if intra and draw(st.booleans()):
        inter.append(intra[0])
    return np.array(ids, dtype=np.int64), intra, inter


@pytest.mark.parametrize("block_pairs", [1, 2, 3, 7])
@settings(max_examples=150, deadline=None)
@example(case=(np.arange(1, 5), [(1, 2), (2, 3), (1, 4)], [(1, 2)]))
@example(case=(np.array([2, 5, 9]), [], [(2, 9), (5, 9)]))
@example(case=(np.array([2, 5, 9]), [(2, 5), (2, 4)], [(1, 5)]))
@given(case=partner_cases())
def test_partners_match_the_concatenate_and_sort_reference(block_pairs, case):
    """The two-pass block fill gives the reference's CSR, the same dtypes
    and bytes, read-only, for any block size; an id outside ``ids`` raises
    the reference's DomainError (the first such pair, intra before inter)."""
    ids, intra, inter = case
    restrictions = RestrictionSets(intra, inter)  # no CSR kept from another block size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK_PAIRS", block_pairs)
        try:
            want = ref_partners(restrictions, ids)
        except DomainError as missing:
            with pytest.raises(DomainError) as err:
                restrictions.partners(ids)
            assert err.value.args == missing.args
            return
        got = restrictions.partners(ids)
    for array, ref in zip(got, want):
        assert array.dtype == ref.dtype and array.tobytes() == ref.tobytes() and not array.flags.writeable


@pytest.mark.parametrize("block_pairs, intra, inter", [
    (None, [(1, 2), (2, 3), (1, 4)], [(1, 2)]),
    (None, [], [(2, 3), (1, 4)]),
    (None, [], []),
    (2, [(1, 2), (2, 3), (1, 4)], [(1, 2)]),
])
def test_partners_of_one_and_several_block_kinds_match_reference(block_pairs, intra, inter, monkeypatch):
    """Kinds that fit in one block, empty kinds, and a kind of several
    blocks (here 3 intra pairs in blocks of 2) give the reference's CSR."""
    if block_pairs is not None:
        monkeypatch.setattr(model, "_BLOCK_PAIRS", block_pairs)
    ids = np.arange(1, 5)
    restrictions = RestrictionSets(intra, inter)
    got = restrictions.partners(ids)
    for array, ref in zip(got, ref_partners(restrictions, ids)):
        assert array.tobytes() == ref.tobytes()


def _flagged_pair_cases(rng, n_p, gapped):
    """Yield 20 (ids, plan) cases for the _flagged_pairs tests: plans with
    inactive beams, rows 0 and n_rows + 1 and slots outside the grid."""
    grid = FrequencyGrid(n_bw=6, n_fr=3, n_p=n_p)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        ids = (np.sort(rng.choice(np.arange(1, 4 * n), n, replace=False)) if gapped else np.arange(5, 5 + n))
        plan = random_plan(rng, [Beam(id=int(i)) for i in ids], grid)
        # some inactive beams keep a stale block, as PlanArrays rows do
        yield ids, FrequencyPlan({
            i: Assignment(a.f, a.g, a.b, active=False) if a.active and rng.random() < 0.3 else a
            for i, a in plan.assignments.items()
        })


def _pairs_from(rng, pool):
    pairs = np.sort(rng.choice(pool, (int(rng.integers(1, 200)), 2)), axis=1)
    return pairs[pairs[:, 0] != pairs[:, 1]]


@pytest.mark.parametrize("gapped", [False, True], ids=["contiguous-ids", "gapped-ids"])
@pytest.mark.parametrize("kind", ["intra-overlap", "inter-overlap"])
@pytest.mark.parametrize("n_p", [1, 2])
def test_flagged_pairs_match_the_pair_loop(kind, n_p, gapped, monkeypatch):
    """Over pairs of the plan's ids, _flagged_pairs returns exactly the
    indices, ascending, of the pairs on which _pair_violation reports, in
    blocks that split the pair list."""
    monkeypatch.setattr(model, "_BLOCK_PAIRS", 37)
    rng = np.random.default_rng(n_p * 10 + gapped)
    for ids, plan in _flagged_pair_cases(rng, n_p, gapped):
        plan_ids, state = model._plan_arrays(plan)
        pairs = _pairs_from(rng, ids)
        want = [model._pair_violation(kind, i, j, plan, n_p) is not None for i, j in pairs.tolist()]
        assert model._flagged_pairs(kind, pairs, plan_ids, state, n_p).tolist() == np.flatnonzero(want).tolist()


@pytest.mark.parametrize("gapped", [False, True], ids=["contiguous-ids", "gapped-ids"])
@pytest.mark.parametrize("kind", ["intra-overlap", "inter-overlap"])
@pytest.mark.parametrize("n_p", [1, 2])
def test_flagged_pairs_raise_the_pair_loops_error(kind, n_p, gapped, monkeypatch):
    """Over pairs that name at least one id the plan lacks, _flagged_pairs
    raises the pair loop's DomainError: the first such pair in pair order,
    in whichever block it falls."""
    monkeypatch.setattr(model, "_BLOCK_PAIRS", 37)
    rng = np.random.default_rng(n_p * 10 + gapped + 100)
    for ids, plan in _flagged_pair_cases(rng, n_p, gapped):
        plan_ids, state = model._plan_arrays(plan)
        # ids of the plan, and some below, between and above them
        pool = np.concatenate((ids, [ids[0] - 1, ids[-1] + 1, ids[-1] + 50, -3], np.arange(ids[0], ids[-1])))
        pairs = _pairs_from(rng, pool)
        # at least one pair names a missing id
        outside = np.sort([rng.choice(ids), rng.choice(np.setdiff1d(pool, ids))])
        pairs = np.insert(pairs, int(rng.integers(len(pairs) + 1)), outside, axis=0)
        with pytest.raises(DomainError) as missing:
            for i, j in pairs.tolist():
                model._pair_violation(kind, i, j, plan, n_p)
        with pytest.raises(DomainError) as err:
            model._flagged_pairs(kind, pairs, plan_ids, state, n_p)
        assert err.value.args == missing.value.args


@pytest.mark.parametrize("array_min_pairs", ARRAY_MIN_PAIRS)
def test_check_ids_raises_on_the_first_unknown_pair(array_min_pairs, monkeypatch):
    """The array test and the pair loop raise on the same pair: intra
    before inter, then in pair order."""
    monkeypatch.setattr(model, "_ARRAY_MIN_PAIRS", array_min_pairs)
    ids = list(range(3, 20))
    restrictions = RestrictionSets.of(intra=[(3, 4), (5, 6)], inter=[(3, 5)])
    restrictions.check_ids(ids)
    restrictions.check_ids(ids[::-1] + [40, 1])
    for intra, inter, message in (
        ([(3, 4), (4, 21), (2, 5)], [(1, 3)], "intra pair (2, 5)"),
        ([(3, 4), (5, 19)], [(7, 8), (8, 20), (19, 30)], "inter pair (8, 20)"),
        ([(3, 4)], [(3, 25), (10, 11)], "inter pair (3, 25)"),
    ):
        with pytest.raises(DomainError, match=re.escape(f"{message} references unknown beam")):
            RestrictionSets.of(intra=intra, inter=inter).check_ids(ids)
    gapped = [3, 7, 9]
    with pytest.raises(DomainError, match=re.escape("intra pair (7, 8) references")):
        RestrictionSets.of(intra=[(3, 9), (7, 8)]).check_ids(gapped)


@pytest.mark.parametrize("block_pairs", [1, 7])
@pytest.mark.parametrize("array_min_pairs", ARRAY_MIN_PAIRS)
@pytest.mark.parametrize("gapped", [False, True], ids=["contiguous-ids", "gapped-ids"])
@pytest.mark.parametrize("kind", ["intra", "inter"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_check_ids_in_pair_blocks_names_the_pair_loops_pair(where, kind, gapped, array_min_pairs, block_pairs,
                                                             monkeypatch):
    """Rows (k, k + 1) over 51 ids, one kind's with an unknown second id at
    the end of the first block, in a middle block or in the last row, and in
    the last row too; the other kind's all known. The blockwise test stops
    at the first unknown and raises the pair loop's DomainError for it."""
    monkeypatch.setattr(model, "_ARRAY_MIN_PAIRS", array_min_pairs)
    monkeypatch.setattr(model, "_BLOCK_PAIRS", block_pairs)
    ids = np.arange(51) * (3 if gapped else 1) + 5
    clean = np.column_stack((ids[:-1], ids[1:]))
    pairs = clean.copy()
    at = {"first": block_pairs - 1, "middle": len(pairs) // 2, "last": len(pairs) - 1}[where]
    for row in {at, len(pairs) - 1}:
        pairs[row, 1] = pairs[row, 0] + 1 if gapped else ids[-1] + 100
    restrictions = RestrictionSets(**{kind: pairs, "intra" if kind == "inter" else "inter": clean})
    known = set(ids.tolist())
    i, j = next((i, j) for i, j in restrictions.pairs[kind].tolist() if i not in known or j not in known)
    assert (i, j) == tuple(pairs[at].tolist())
    with pytest.raises(DomainError) as err:
        restrictions.check_ids(ids.tolist())
    assert str(err.value) == f"{kind} pair ({i}, {j}) references unknown beam"


@pytest.mark.parametrize("intra, inter, message", [
    ([(1, 999)], [], "intra pair (1, 999) references unknown beam"),
    ([(1, 2), (2, 998)], [(1, 999)], "intra pair (2, 998) references unknown beam"),
    ([(1, 2)], [(2, 3), (3, 999)], "inter pair (3, 999) references unknown beam"),
])
def test_every_entry_point_names_the_first_unknown_pair(intra, inter, message, monkeypatch):
    """A restriction pair naming a beam that a 3-beam scenario lacks is one
    DomainError on every path that reads the pairs: the first such pair,
    intra before inter, whether check_ids and validate_plan look it up
    blockwise (_ARRAY_MIN_PAIRS 0) or pair by pair (the default)."""
    grid = FrequencyGrid(n_bw=4, n_fr=1, n_p=2)
    beams = (Beam(id=1), Beam(id=2), Beam(id=3))
    scenario = Scenario(grid=grid, beams=beams, geometry=GEOM)
    restrictions = RestrictionSets(intra, inter)
    plan = FrequencyPlan({b.id: Assignment(1, 1, 1) for b in beams})
    weights = ObjectiveWeights()
    config = IterationConfig(max_iterations=1)
    calls = [
        lambda: Scenario(grid=grid, beams=beams, geometry=GEOM, restrictions=restrictions),
        lambda: restrictions.check_ids(scenario.beam_ids()),
        lambda: restrictions.partners(np.array([1, 2, 3], dtype=np.int64)),
        lambda: iterative.PlanArrays(scenario, restrictions),
        lambda: greedy_warm_start(scenario, restrictions),
        lambda: optimize(scenario, restrictions, weights, config=config),
        lambda: optimize(scenario, restrictions, weights, warm_start=plan, config=config),
        lambda: build_full_model(scenario, restrictions, weights),
        lambda: brute_force_best_plan(scenario, restrictions, weights),
        lambda: validate_plan(plan, grid, restrictions, beams),
    ]
    for array_min_pairs in ARRAY_MIN_PAIRS:
        monkeypatch.setattr(model, "_ARRAY_MIN_PAIRS", array_min_pairs)
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == message


def test_check_ids_peak_memory_is_bounded():
    """On l_pipeline's pairs (0.93 MB, int16), check_ids peaks at no more
    than 0.6x their bytes of traced allocation: one block's positions at a
    time. Testing every pair at once peaked at 3.2x."""
    scenario = benchmark_scenario("l_pipeline")
    restrictions = RestrictionSets(derive_intra_pairs(scenario, route_beams(scenario)), derive_inter_pairs(scenario))
    ids = scenario.beam_ids()
    _, _, peak = traced_memory(lambda: restrictions.check_ids(ids))
    size = sum(pairs.nbytes for pairs in restrictions.pairs.values())
    print(f"check_ids: peak {peak} B for {size} B of pairs")
    assert len(restrictions.pairs["intra"]) == 242537 and peak <= 0.6 * size

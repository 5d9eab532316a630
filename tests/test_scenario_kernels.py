"""The array scenario pipeline against the scalar loops it replaced.

Clustering, routing and both pair derivations must give exactly the
references' beams, routes and pairs, including at hand-built ties and
thresholds where numpy's and math's trigonometry could disagree by an ulp.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    derive_restrictions,
    generate_synthetic,
    greedy_warm_start,
    optimize,
    route_beams,
    validate_plan,
)
from freqplan import iterative, model, scenario as scenario_mod
from freqplan.iterative import IterationConfig
from freqplan.model import ObjectiveWeights
from freqplan.scenario import (
    _cluster_users,
    central_angle_deg,
    derive_inter_pairs,
    derive_intra_pairs,
    elevation_deg,
)

from util import (
    ref_cluster_users,
    ref_derive_inter_pairs,
    ref_derive_intra_pairs,
    ref_generate_beams,
    ref_route_beams,
    ref_validate_plan,
)

GRID = FrequencyGrid(n_bw=40, n_fr=8, n_p=2, slot_bandwidth_hz=50e6)
GEOM = ConstellationGeometry(n_s=7, altitude_km=8062.0)


def routed_or_error(route, scenario):
    """The routing, or the (beam, t) of the RoutingError it raises."""
    try:
        return route(scenario)
    except RoutingError as err:
        return (err.beam_id, err.step_min)


def pair_set(pairs):
    """A derived pair array as a frozenset of tuples, once it is checked to
    be canonical: int64 rows (smaller id, larger id), sorted and distinct."""
    rows = list(map(tuple, pairs.tolist()))
    assert pairs.dtype == np.int64 and pairs.shape == (len(rows), 2)
    assert rows == sorted(set(rows)) and all(i < j for i, j in rows)
    return frozenset(rows)


def assert_pipeline_matches_reference(scenario):
    routing = routed_or_error(route_beams, scenario)
    assert routing == routed_or_error(ref_route_beams, scenario)
    if isinstance(routing, dict):
        assert list(routing) == list(ref_route_beams(scenario))
        assert pair_set(derive_intra_pairs(scenario, routing)) == ref_derive_intra_pairs(scenario, routing)
    assert pair_set(derive_inter_pairs(scenario)) == ref_derive_inter_pairs(scenario)


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
    assert (len(restrictions.intra), len(restrictions.inter)) == (1315, 6)


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
    params = GenerationParams(lat_band_deg=(-30.0, 30.0), n_gateways=2)
    scenario = generate_synthetic(seed=4, n_users=40, grid=GRID, geometry=GEOM, params=params)
    assert scenario.beams == ref_generate_beams(4, 40, params)
    assert_pipeline_matches_reference(scenario)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(1, 40),
    band=st.sampled_from([5.0, 30.0, 60.0]),
    n_gateways=st.integers(0, 3),
    n_s=st.sampled_from([1, 2, 7]),
    altitude_km=st.sampled_from([1200.0, 8062.0, 35786.0]),
    step_min=st.sampled_from([0.5, 1.0, 2.5, 7.0]),
    n_steps=st.integers(1, 12),
    half_cone_deg=st.sampled_from([0.5, 1.0, 3.0, 10.0]),
    interference_multiplier=st.sampled_from([2.0, 4.0]),
    min_elevation_deg=st.sampled_from([0.0, 10.0, 30.0]),
)
def test_small_scenarios_match_reference(
    seed, n_users, band, n_gateways, n_s, altitude_km, step_min, n_steps,
    half_cone_deg, interference_multiplier, min_elevation_deg,
):
    params = GenerationParams(lat_band_deg=(-band, band), n_gateways=n_gateways)
    scenario = generate_synthetic(
        seed=seed, n_users=n_users, grid=GRID,
        geometry=ConstellationGeometry(n_s=n_s, altitude_km=altitude_km), params=params,
        horizon_min=step_min * n_steps + step_min / 3, step_min=step_min,
        half_cone_deg=half_cone_deg, interference_multiplier=interference_multiplier,
        min_elevation_deg=min_elevation_deg,
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
            assert pair_set(derive_inter_pairs(s)) == frozenset()

    def test_pair_exactly_at_the_inter_threshold_is_not_restricted(self):
        beams = (Beam(id=1, lat=0.0, lon=0.0), Beam(id=2, lat=0.0, lon=4.0), Beam(id=3, lat=0.0, lon=7.5))
        sep = central_angle_deg(0.0, 0.0, 0.0, 4.0)
        for half_cone, expected in ((sep / 4.0, {(2, 3)}), (math.nextafter(sep, 10.0) / 4.0, {(1, 2), (2, 3)})):
            s = Scenario(grid=GRID, beams=beams, geometry=GEOM, half_cone_deg=half_cone)
            assert pair_set(derive_inter_pairs(s)) == ref_derive_inter_pairs(s) == frozenset(expected)

    def test_beam_equidistant_from_two_satellites_takes_the_lower_index(self):
        # four satellites at 0, 90, 180, 270 deg at t=0; the beam at 45 deg
        # is exactly as far from satellite 0 as from satellite 1
        geom = ConstellationGeometry(n_s=4, altitude_km=8062.0)
        beam = Beam(id=1, lat=0.0, lon=45.0)
        assert central_angle_deg(0.0, 45.0, 0.0, 0.0) == central_angle_deg(0.0, 45.0, 0.0, 90.0)
        s = Scenario(grid=GRID, beams=(beam,), geometry=geom, horizon_min=1.0, step_min=1.0)
        routing = route_beams(s)
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
        assert route_beams(s) == ref_route_beams(s)

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
        assert route_beams(visible) == ref_route_beams(visible) == {0.0: {1: 0, 2: 0}, 0.5: {1: 0, 2: 0}}
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
    dicts it reads, stays below one beams x beams float64 array (1.57 MB at
    443 beams), so a full angle array and its temporaries would not fit.
    What the pair arrays keep (0.44 MB) is no yardstick: the routing alone
    keeps more."""
    _, routing, _ = traced_memory(lambda: route_beams(m_scenario))
    restrictions, kept, peak = traced_memory(lambda: derive_restrictions(m_scenario))
    n = len(m_scenario.beams)
    print(f"derive_restrictions on M: peak {peak} B, kept {kept} B, routing {routing} B")
    assert len(restrictions.pairs["intra"]) == 27686
    assert peak < routing + 8 * n * n


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
    except (KeyError, DomainError) as exc:
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
    monkeypatch.setattr(model, "_FLAG_BLOCK_PAIRS", block_pairs)
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
    assert outcome(validate_plan, plan, grid, unknown, beams) == (KeyError, "9")
    assert outcome(ref_validate_plan, plan, grid, unknown, beams) == (KeyError, "9")


def test_pipeline_builds_one_partner_csr_per_plan_arrays(monkeypatch):
    """The warm start and the optimizer each build one PlanArrays, and with
    it the only partner CSR of the run; iterations build none."""
    built = []
    real_csr = iterative._partner_csr
    monkeypatch.setattr(iterative, "_partner_csr", lambda ids, r: built.append(len(ids)) or real_csr(ids, r))
    scenario = generate_synthetic(seed=7, n_users=100, grid=GRID, geometry=GEOM)
    restrictions = derive_restrictions(scenario)
    warm = greedy_warm_start(scenario, restrictions)
    optimize(scenario, restrictions, ObjectiveWeights(), warm_start=warm,
             config=IterationConfig(n_ch=10, max_iterations=3, seed=0))
    assert built == [98, 98]


def test_pipeline_reads_only_the_pair_arrays(monkeypatch):
    """From derive_restrictions to the final validate_plan no frozenset of
    pairs is built: the intra kind (1315 pairs) takes validate_plan's array
    path, the inter kind (6 pairs) its pair-by-pair path."""
    scenario = generate_synthetic(seed=7, n_users=100, grid=GRID, geometry=GEOM)
    restrictions = derive_restrictions(scenario)

    def no_view(self):
        raise AssertionError("a frozenset of restriction pairs was built")

    for kind in ("intra", "inter"):
        monkeypatch.setattr(RestrictionSets, kind, property(no_view))
    warm = greedy_warm_start(scenario, restrictions)
    plan, _ = optimize(scenario, restrictions, ObjectiveWeights(), warm_start=warm,
                       config=IterationConfig(n_ch=10, max_iterations=3, seed=0))
    assert validate_plan(plan, scenario.grid, restrictions, scenario.beams) == []

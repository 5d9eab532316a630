"""Iteration-based optimizer: option enumeration, subproblems, convergence."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqplan import (
    Assignment,
    Beam,
    ConstellationGeometry,
    FrequencyGrid,
    FrequencyPlan,
    IterationConfig,
    ObjectiveWeights,
    PowerTable,
    RestrictionSets,
    Scenario,
    build_subproblem,
    derive_restrictions,
    enumerate_options,
    export_trace,
    generate_synthetic,
    greedy_warm_start,
    objective_value,
    optimize,
    save_plan_csv,
    score_option,
    solve_exact,
    validate_plan,
)
from freqplan import iterative
from freqplan.iterative import OptionGroup, PairConflicts, _sanitize_warm_start
from freqplan.solver import solve_option_selection

from util import (
    random_instance,
    ref_enumerate_options,
    ref_options_collide,
    ref_reoptimize,
    ref_sanitize_warm_start,
)

GRID = FrequencyGrid(n_bw=4, n_fr=2, n_p=2)
GEOM = ConstellationGeometry(n_s=2, altitude_km=8062.0)


def scenario_with(beams, intra=(), inter=()):
    return Scenario(
        grid=GRID,
        beams=tuple(beams),
        geometry=GEOM,
        restrictions=RestrictionSets.of(intra=intra, inter=inter),
    )


def all_inactive(scenario):
    return FrequencyPlan({b.id: Assignment.inactive() for b in scenario.beams})


class TestScoring:
    def test_score_matches_objective_contribution(self):
        w = ObjectiveWeights(beta1=2.0, beta2=0.5, beta3=0.25, beta5=1.5)
        beam = Beam(id=1)
        plan = FrequencyPlan({1: Assignment(3, 2, 4)})
        assert score_option(beam, 3, 2, 4, w) == pytest.approx(objective_value(plan, w))


class TestEnumerateOptions:
    CONFIG = IterationConfig(n_ch=1, top_per_bandwidth=None)

    def test_all_options_when_nothing_fixed(self):
        s = scenario_with([Beam(id=1)])
        oset = enumerate_options(
            s.beams[0], GRID, all_inactive(s), s.restrictions, {1},
            self.CONFIG, ObjectiveWeights(),
        )
        # 4 rows x sum_b (slots for b) = 4 * (4+3+2+1) = 40 candidates
        assert len(oset.options) == 40
        assert not oset.includes_original

    def test_options_avoid_fixed_intra_partner(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        plan = FrequencyPlan({1: Assignment.inactive(), 2: Assignment(1, 1, 4)})
        oset = enumerate_options(
            s.beams[0], GRID, plan, s.restrictions, {1},
            self.CONFIG, ObjectiveWeights(),
        )
        assert all(o.g != 1 for o in oset.options)
        # the other three rows stay fully available
        assert len(oset.options) == 30

    def test_options_avoid_fixed_inter_partner_by_polarization(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], inter=[(1, 2)])
        plan = FrequencyPlan({1: Assignment.inactive(), 2: Assignment(1, 1, 4)})
        oset = enumerate_options(
            s.beams[0], GRID, plan, s.restrictions, {1},
            self.CONFIG, ObjectiveWeights(),
        )
        # row 1 and row 3 share polarization m=1 with the fixed beam
        assert all(o.g in (2, 4) for o in oset.options)

    def test_partner_being_reoptimized_does_not_block(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        plan = FrequencyPlan({1: Assignment.inactive(), 2: Assignment(1, 1, 4)})
        oset = enumerate_options(
            s.beams[0], GRID, plan, s.restrictions, {1, 2},
            self.CONFIG, ObjectiveWeights(),
        )
        assert len(oset.options) == 40

    def test_cap_keeps_best_per_bandwidth(self):
        s = scenario_with([Beam(id=1)])
        config = IterationConfig(n_ch=1, top_per_bandwidth=1)
        w = ObjectiveWeights(beta1=1.0, beta2=0.1, beta3=0.01)
        oset = enumerate_options(
            s.beams[0], GRID, all_inactive(s), s.restrictions, {1}, config, w,
        )
        assert len(oset.options) == GRID.n_bw  # one per slot count
        # per slot count the best candidate is f=1, g=1 (lowest penalties)
        assert all(o.f == 1 and o.g == 1 for o in oset.options)
        assert sorted(o.b for o in oset.options) == [1, 2, 3, 4]

    def test_ranking_is_score_descending(self):
        s = scenario_with([Beam(id=1)])
        w = ObjectiveWeights(beta1=1.0, beta2=0.2, beta3=0.05)
        oset = enumerate_options(
            s.beams[0], GRID, all_inactive(s), s.restrictions, {1},
            self.CONFIG, w,
        )
        scores = [o.score for o in oset.options]
        assert scores == sorted(scores, reverse=True)
        for o in oset.options:
            assert o.score == pytest.approx(score_option(s.beams[0], o.f, o.g, o.b, w))

    def test_keep_as_is_candidate_present_iff_conflict_free(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        free = FrequencyPlan({1: Assignment(1, 2, 2), 2: Assignment(1, 1, 4)})
        oset = enumerate_options(
            s.beams[0], GRID, free, s.restrictions, {1}, self.CONFIG, ObjectiveWeights(),
        )
        assert oset.includes_original
        assert (oset.original.f, oset.original.g, oset.original.b) == (1, 2, 2)
        clash = FrequencyPlan({1: Assignment(1, 1, 2), 2: Assignment(1, 1, 4)})
        oset = enumerate_options(
            s.beams[0], GRID, clash, s.restrictions, {1}, self.CONFIG, ObjectiveWeights(),
        )
        assert not oset.includes_original

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_ranking(self, seed):
        """Same candidates, order and float scores as a plain loop over the
        domain, with and without a per-width cap and power-aware scores."""
        rng = np.random.default_rng(900 + seed)
        for _ in range(6):
            grid = FrequencyGrid(
                n_bw=int(rng.integers(3, 13)), n_fr=int(rng.integers(1, 4)),
                n_p=int(rng.integers(1, 3)),
            )
            beams = []
            for i in range(1, 6):
                rows = slots = None
                if rng.random() < 0.4:
                    lo = int(rng.integers(1, grid.n_rows + 1))
                    rows = (lo, int(rng.integers(lo, grid.n_rows + 1)))
                if rng.random() < 0.4:
                    lo = int(rng.integers(1, grid.n_bw + 1))
                    slots = (lo, int(rng.integers(lo, grid.n_bw + 1)))
                width = (slots[1] - slots[0] + 1) if slots else grid.n_bw
                beams.append(Beam(id=i, min_slots=int(rng.integers(1, width + 1)),
                                  allowed_rows=rows, allowed_slots=slots))
            pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
            restrictions = RestrictionSets.of(
                intra=[p for p in pairs if rng.random() < 0.5],
                inter=[p for p in pairs if rng.random() < 0.3],
            )
            plan = {}
            for i in range(1, 6):
                f = int(rng.integers(1, grid.n_bw + 1))
                plan[i] = (
                    Assignment(f, int(rng.integers(1, grid.n_rows + 1)),
                               int(rng.integers(1, grid.n_bw - f + 2)))
                    if rng.random() < 0.7 else Assignment.inactive()
                )
            plan = FrequencyPlan(plan)
            # coarse weights make exact score ties common
            weights = ObjectiveWeights(
                beta1=float(rng.choice([1.0, 0.5, 2.0])),
                beta2=float(rng.choice([0.0, 0.1, -0.25, 1.0])),
                beta3=float(rng.choice([0.0, 0.1, 0.01, -0.5])),
                beta4=float(rng.choice([0.0, 0.05])),
                beta5=float(rng.choice([0.0, 1.5])),
            )
            tables = {
                b.id: PowerTable(b.id, tuple(rng.choice([1.0, 3.0, 7.5], size=grid.n_bw)),
                                 tuple(np.ones(grid.n_bw)))
                for b in beams
            }
            cap = [None, 1, 2, 5][int(rng.integers(0, 4))]
            selected = {1} | {i for i in range(2, 6) if rng.random() < 0.3}
            got = enumerate_options(
                beams[0], grid, plan, restrictions, selected,
                IterationConfig(top_per_bandwidth=cap), weights, tables,
            )
            expected = ref_enumerate_options(
                beams[0], grid, plan, restrictions, selected, cap, weights, tables
            )
            assert [(o.f, o.g, o.b, o.score) for o in got.options] == expected


class TestSubproblem:
    def build(self, seed=0, n_pick=3):
        rng = np.random.default_rng(seed)
        s, w = random_instance(rng, max_beams=4, max_bw=3)
        warm = greedy_warm_start(s, s.restrictions)
        picked = [b.id for b in s.beams][:n_pick]
        config = IterationConfig(n_ch=len(picked), top_per_bandwidth=None)
        osets = [
            enumerate_options(
                s.beam(i), s.grid, warm, s.restrictions, set(picked), config, w
            )
            for i in picked
        ]
        return s, w, osets

    def test_structure_one_constraint_per_beam(self):
        s, w, osets = self.build()
        model = build_subproblem(osets, s.restrictions, s.grid)
        names = [c.name for c in model.constraints]
        for oset in osets:
            tag = f"one_{oset.beam_id}" if oset.includes_original else f"act_{oset.beam_id}"
            assert tag in names

    @pytest.mark.parametrize("seed", range(6))
    def test_milp_subproblem_matches_direct_search(self, seed):
        s, w, osets = self.build(seed=seed)
        model = build_subproblem(osets, s.restrictions, s.grid)
        milp_sol = solve_exact(model)
        assert milp_sol.status == "optimal"

        scores, allow_none, full = [], [], []
        for oset in osets:
            opts = list(oset.options) + ([oset.original] if oset.includes_original else [])
            full.append(opts)
            scores.append([o.score for o in opts])
            allow_none.append(not oset.includes_original)
        conflict = {}
        for a in range(len(osets)):
            for b in range(a + 1, len(osets)):
                i, j = osets[a].beam_id, osets[b].beam_id
                key = (min(i, j), max(i, j))
                ii, ie = key in s.restrictions.intra, key in s.restrictions.inter
                if not (ii or ie):
                    continue
                conflict[(a, b)] = np.array(
                    [
                        [ref_options_collide(u, v, ii, ie, s.grid.n_p) for v in full[b]]
                        for u in full[a]
                    ]
                )
        _, total = solve_option_selection(scores, allow_none, conflict)
        assert milp_sol.objective == pytest.approx(total, abs=1e-9)


@st.composite
def _restricted_beam_pair(draw):
    """Two beams with drawn domains on a drawn grid, a fixed third beam
    blocking part of it, and a drawn pair kind."""
    grid = FrequencyGrid(
        n_bw=draw(st.integers(2, 7)), n_fr=draw(st.integers(1, 3)), n_p=draw(st.integers(1, 2))
    )

    def beam(beam_id):
        rows = slots = None
        if draw(st.booleans()):
            lo = draw(st.integers(1, grid.n_rows))
            rows = (lo, draw(st.integers(lo, grid.n_rows)))
        if draw(st.booleans()):
            lo = draw(st.integers(1, grid.n_bw))
            slots = (lo, draw(st.integers(lo, grid.n_bw)))
        width = (slots[1] - slots[0] + 1) if slots else grid.n_bw
        return Beam(id=beam_id, min_slots=draw(st.integers(1, width)),
                    allowed_rows=rows, allowed_slots=slots)

    beams = (beam(1), beam(2), Beam(id=3))
    kind = draw(st.sampled_from(["intra", "inter", "both"]))
    pair = [(1, 2)]
    restrictions = RestrictionSets.of(
        intra=pair + [(1, 3), (2, 3)] if kind != "inter" else [(1, 3)],
        inter=pair + [(2, 3)] if kind != "intra" else [(2, 3)],
    )
    f = draw(st.integers(1, grid.n_bw))
    fixed = Assignment(f, draw(st.integers(1, grid.n_rows)), draw(st.integers(1, grid.n_bw - f + 1)))
    current = {1: Assignment.inactive(), 2: Assignment.inactive(), 3: fixed}
    top = draw(st.sampled_from([None, 1, 3]))
    return grid, beams, restrictions, FrequencyPlan(current), top


class TestCollisionKernel:
    @settings(max_examples=150, deadline=None)
    @given(case=_restricted_beam_pair())
    def test_kernel_rows_match_pairwise_reference(self, case):
        grid, beams, restrictions, plan, top = case
        config = IterationConfig(n_ch=2, top_per_bandwidth=top)
        osets = [
            enumerate_options(beam, grid, plan, restrictions, {1, 2}, config, ObjectiveWeights())
            for beam in beams[:2]
        ]
        groups = [OptionGroup(oset.f, oset.g, oset.b, grid) for oset in osets]
        opts = [list(oset.options) for oset in osets]
        is_intra, is_inter = (1, 2) in restrictions.intra, (1, 2) in restrictions.inter
        kernel = PairConflicts(groups[0], groups[1], by_pol=is_inter)
        assert kernel.size == len(opts[0]) * len(opts[1])
        for u, ou in enumerate(opts[0]):
            expected = [ref_options_collide(ou, ov, is_intra, is_inter, grid.n_p) for ov in opts[1]]
            assert [bool(kernel.rows[u] >> v & 1) for v in range(len(opts[1]))] == expected
            assert kernel.rows[u] < 1 << len(opts[1])
        for v, ov in enumerate(opts[1]):
            expected = [ref_options_collide(ou, ov, is_intra, is_inter, grid.n_p) for ou in opts[0]]
            assert [bool(kernel.cols[v] >> u & 1) for u in range(len(opts[0]))] == expected


class TestWarmStartAndRepair:
    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_warm_start_valid_and_deterministic(self, seed):
        rng = np.random.default_rng(300 + seed)
        s, _ = random_instance(rng)
        a = greedy_warm_start(s, s.restrictions)
        b = greedy_warm_start(s, s.restrictions)
        assert a.assignments == b.assignments
        assert validate_plan(a, s.grid, s.restrictions, s.beams) == []

    def test_sanitize_repairs_invalid_start(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        bad = FrequencyPlan({1: Assignment(1, 1, 4), 2: Assignment(2, 1, 4)})
        fixed = _sanitize_warm_start(bad, s, s.restrictions)
        assert validate_plan(fixed, s.grid, s.restrictions, s.beams) == []
        # deterministic repair deactivates the higher id of the clash
        assert fixed[1].active and not fixed[2].active

    def test_sanitize_fills_missing_beams(self):
        s = scenario_with([Beam(id=1), Beam(id=2)])
        partial = FrequencyPlan({1: Assignment(1, 1, 1)})
        fixed = _sanitize_warm_start(partial, s, s.restrictions)
        assert not fixed[2].active


    @pytest.mark.parametrize("seed", range(8))
    def test_sanitize_matches_revalidating_repair(self, seed):
        rng = np.random.default_rng(500 + seed)
        for _ in range(10):
            s, _ = random_instance(rng, max_beams=8, max_bw=6, density_choices=(0.3, 0.7, 1.0))
            assignments = {}
            for beam in s.beams:
                if rng.random() < 0.2:
                    continue  # partial plan: the beam is missing
                if rng.random() < 0.15:
                    assignments[beam.id] = Assignment.inactive()
                    continue
                # may leave the grid, undercut min_slots or collide
                f = int(rng.integers(0, s.grid.n_bw + 1))
                b = int(rng.integers(0, s.grid.n_bw + 1))
                g = int(rng.integers(1, s.grid.n_rows + 1))
                assignments[beam.id] = Assignment(f, g, b)
            plan = FrequencyPlan(assignments)
            fixed = _sanitize_warm_start(plan, s, s.restrictions)
            assert fixed.assignments == ref_sanitize_warm_start(plan, s, s.restrictions).assignments

    def test_sanitize_is_one_pass(self, monkeypatch):
        n = 420
        grid = FrequencyGrid(n_bw=4, n_fr=1, n_p=1)
        s = Scenario(
            grid=grid,
            beams=tuple(Beam(id=i) for i in range(1, n + 1)),
            geometry=GEOM,
            restrictions=RestrictionSets.of(
                intra=[(i, i + 1) for i in range(1, n)] + [(1, i) for i in range(3, n + 1)],
                inter=[(i, i + 2) for i in range(1, n - 1)],
            ),
        )
        every_beam_collides = FrequencyPlan({i: Assignment(1, 1, 4) for i in range(1, n + 1)})
        calls = []
        real = iterative.validate_plan
        monkeypatch.setattr(
            iterative, "validate_plan", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        fixed = _sanitize_warm_start(every_beam_collides, s, s.restrictions)
        assert len(calls) <= 1
        assert validate_plan(fixed, s.grid, s.restrictions, s.beams) == []
        # beam 1 collides with every other beam and has the lowest id
        assert [i for i, _ in fixed.active_items()] == [1]


class TestOptimize:
    def test_golden_large_case(self, tmp_path):
        """The acceptance large_case after 50 iterations at seed 0: pins the
        search semantics (ranking, candidate order, node counting) to one
        plan, byte for byte."""
        scenario = generate_synthetic(
            seed=7,
            n_users=100,
            grid=FrequencyGrid(n_bw=40, n_fr=8, n_p=2, slot_bandwidth_hz=50e6),
            geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
        )
        restrictions = derive_restrictions(scenario)
        warm = greedy_warm_start(scenario, restrictions)
        plan, trace = optimize(
            scenario, restrictions, ObjectiveWeights(beta1=1.0, beta2=0.01, beta3=0.001),
            warm_start=warm,
            config=IterationConfig(n_ch=25, convergence_window=50, seed=0, max_iterations=50),
        )
        assert trace.objectives()[-1] == pytest.approx(3449.424, abs=1e-9)
        path = tmp_path / "plan.csv"
        save_plan_csv(plan, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c7a8f0b947ccac086191ef6f2c7541b61fb5cdcdbf6c5ca2cfcfc342dc10774e"
        )

    @pytest.mark.parametrize("node_budget", [0, 1, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_iterations_match_reference_step(self, seed, node_budget):
        """Each iteration applies what the reference ranking, dense pairwise
        conflicts and the reference search select, keep-as-is candidate
        last. Flat weights make equal scores across different blocks common."""
        rng = np.random.default_rng(700 + seed)
        grid = FrequencyGrid(n_bw=int(rng.integers(3, 7)), n_fr=2, n_p=int(rng.integers(1, 3)))
        beams = tuple(
            Beam(id=i, allowed_rows=(1, grid.n_rows - 1) if i % 3 == 0 else None)
            for i in range(1, 10)
        )
        pairs = [(i, j) for i in range(1, 10) for j in range(i + 1, 10)]
        s = Scenario(
            grid=grid, beams=beams, geometry=GEOM,
            restrictions=RestrictionSets.of(
                intra=[p for p in pairs if rng.random() < 0.5],
                inter=[p for p in pairs if rng.random() < 0.3],
            ),
        )
        w = ObjectiveWeights(beta1=1.0, beta2=float(rng.choice([0.0, 0.5])), beta5=0.5)
        config = IterationConfig(
            n_ch=6, top_per_bandwidth=int(rng.choice([1, 2])), node_budget=node_budget,
        )
        # a random start leaves beams behind equal-score blocks ranked first
        start = {
            beam.id: Assignment(int(rng.integers(1, grid.n_bw + 1)), int(rng.integers(1, grid.n_rows)), 1)
            for beam in beams
        }
        state = iterative.IterationState(
            scenario=s, restrictions=s.restrictions, weights=w, config=config,
            plan=_sanitize_warm_start(FrequencyPlan(start), s, s.restrictions),
        )
        rng_run, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            picked = sorted(int(x) for x in rng_ref.choice(sorted(s.beam_ids()), size=6, replace=False))
            expected = ref_reoptimize(
                s, s.restrictions, w, state.plan, picked, config.top_per_bandwidth, node_budget
            )
            state = iterative.iterate_once(state, rng_run)
            assert state.plan.assignments == expected.assignments

    def small_scenario(self):
        beams = [Beam(id=i) for i in (1, 2, 3, 4)]
        return scenario_with(
            beams, intra=[(1, 2), (2, 3), (3, 4)], inter=[(1, 3), (2, 4)]
        )

    def test_objective_monotone_and_plan_valid(self):
        s = self.small_scenario()
        w = ObjectiveWeights(beta1=1.0, beta2=0.1, beta3=0.02)
        config = IterationConfig(n_ch=2, seed=1, convergence_window=10)
        plan, trace = optimize(s, s.restrictions, w, config=config)
        objs = trace.objectives()
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        assert validate_plan(plan, s.grid, s.restrictions, s.beams) == []

    def test_final_at_least_warm_start(self):
        s = self.small_scenario()
        w = ObjectiveWeights()
        warm = greedy_warm_start(s, s.restrictions)
        plan, _ = optimize(
            s, s.restrictions, w, warm_start=warm,
            config=IterationConfig(n_ch=2, seed=0, convergence_window=10),
        )
        assert objective_value(plan, w) >= objective_value(warm, w) - 1e-9

    def test_halts_after_stall_window(self):
        s = scenario_with([Beam(id=1)])
        config = IterationConfig(n_ch=1, seed=0, convergence_window=7)
        _, trace = optimize(s, s.restrictions, ObjectiveWeights(), config=config)
        # a single unrestricted beam is optimal after one iteration; the run
        # then stalls for exactly the window length
        assert len(trace.records) == 1 + config.convergence_window

    def test_max_iterations_cap(self):
        s = self.small_scenario()
        config = IterationConfig(n_ch=1, seed=0, convergence_window=1000, max_iterations=5)
        _, trace = optimize(s, s.restrictions, ObjectiveWeights(), config=config)
        assert len(trace.records) == 5

    def test_deterministic_runs(self):
        s = self.small_scenario()
        config = IterationConfig(n_ch=2, seed=9, convergence_window=8)
        p1, t1 = optimize(s, s.restrictions, ObjectiveWeights(), config=config)
        p2, t2 = optimize(s, s.restrictions, ObjectiveWeights(), config=config)
        assert p1.assignments == p2.assignments
        assert t1.objectives() == t2.objectives()


class TestTraceExport:
    def test_deterministic_export_zeroes_wall_clock(self, tmp_path):
        s = Scenario(
            grid=GRID,
            beams=(Beam(id=1), Beam(id=2)),
            geometry=GEOM,
            restrictions=RestrictionSets.of(intra=[(1, 2)]),
        )
        config = IterationConfig(n_ch=1, seed=0, convergence_window=3)
        _, trace = optimize(s, s.restrictions, ObjectiveWeights(), config=config)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace(trace, a)
        export_trace(trace, b)
        assert a.read_bytes() == b.read_bytes()
        header, first = a.read_text().splitlines()[:2]
        assert header == "iteration,objective,normalized_bw,beams_changed,wall_ms"
        assert first.endswith(",0")

    def test_non_deterministic_export_keeps_timings(self, tmp_path):
        s = Scenario(
            grid=GRID,
            beams=(Beam(id=1),),
            geometry=GEOM,
            restrictions=RestrictionSets(),
        )
        config = IterationConfig(n_ch=1, seed=0, convergence_window=2)
        _, trace = optimize(s, s.restrictions, ObjectiveWeights(), config=config)
        trace.records[0] = type(trace.records[0])(
            iteration=1, objective=trace.records[0].objective,
            normalized_bw=trace.records[0].normalized_bw,
            beams_changed=0, wall_ms=12.6,
        )
        out = tmp_path / "t.csv"
        export_trace(trace, out, deterministic=False)
        assert out.read_text().splitlines()[1].endswith(",13")

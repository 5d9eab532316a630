"""Iteration-based optimizer: option enumeration, subproblems, convergence."""

import dataclasses
import hashlib

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
    IterationConfig,
    LinkBudget,
    ObjectiveWeights,
    PlanStructureError,
    PowerTable,
    RestrictionSets,
    Scenario,
    UnsupportedConfigurationError,
    derive_restrictions,
    enumerate_options,
    export_trace,
    generate_synthetic,
    greedy_warm_start,
    objective_value,
    optimize,
    power_tables_for,
    save_plan_csv,
    solve_exact,
    total_normalized_bandwidth,
    validate_plan,
)
from freqplan import iterative
from freqplan.iterative import (
    OptionSet,
    PairConflicts,
    PlanArrays,
    _blocked_cells,
    sanitize_warm_start,
)
from freqplan.model import beam_scores
from freqplan.solver import brute_force_best_plan, solve_option_selection

from util import (
    _ref_blocked,
    _ref_score,
    pair_sets,
    random_instance,
    ref_build_subproblem,
    ref_enumerate_options,
    ref_greedy_warm_start,
    ref_keeps_as_is,
    ref_options_collide,
    ref_reoptimize,
    ref_sanitize_warm_start,
    ref_solve_option_selection,
    solve_dense_selection,
    solve_with_scipy_milp,
)

GRID = FrequencyGrid(n_bw=4, n_fr=2, n_p=2)
GEOM = ConstellationGeometry(n_s=2, altitude_km=8062.0)


def large_case():
    """The acceptance large_case: 98 beams on a 40x8x2 grid, its derived
    restrictions and the greedy warm start."""
    scenario = generate_synthetic(
        seed=7,
        n_users=100,
        grid=FrequencyGrid(n_bw=40, n_fr=8, n_p=2, slot_bandwidth_hz=50e6),
        geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
    )
    restrictions = derive_restrictions(scenario)
    return scenario, restrictions, greedy_warm_start(scenario, restrictions)


def dense_conflicts(rows, n_source: int, n_target: int) -> np.ndarray:
    """The boolean matrix a conflict-rows bitset map stands for."""
    n_bytes = (n_target + 7) // 8
    return np.array(
        [
            np.unpackbits(
                np.frombuffer(rows[u].to_bytes(n_bytes, "little"), dtype=np.uint8),
                bitorder="little",
            )[:n_target]
            for u in range(n_source)
        ],
        dtype=bool,
    ).reshape(n_source, n_target)


def scenario_with(beams, intra=(), inter=()):
    return Scenario(
        grid=GRID,
        beams=tuple(beams),
        geometry=GEOM,
        restrictions=RestrictionSets.of(intra=intra, inter=inter),
    )


def all_inactive(scenario):
    return FrequencyPlan({b.id: Assignment.inactive() for b in scenario.beams})


def enumerate_against(beam, grid, plan, restrictions, selected, config, weights, power_table=None):
    """enumerate_options for ``beam`` on the PlanArrays of ``plan``, whose
    other beams have the whole grid as their domain, with the beams of
    ``selected`` marked as re-optimized."""
    beams = tuple(beam if i == beam.id else Beam(id=i) for i in plan.assignments)
    arrays = PlanArrays(Scenario(grid=grid, beams=beams, geometry=GEOM), restrictions, plan)
    arrays.select(np.searchsorted(arrays.ids, sorted(selected)).tolist(), True)
    return enumerate_options(arrays, int(np.searchsorted(arrays.ids, beam.id)), config, weights, power_table)


def keep_as_is(oset):
    """The (f, g, b, score) row at an OptionSet's keep-as-is rank, or None."""
    at = oset.initial
    return None if at is None else (oset.f[at].item(), oset.g[at].item(), oset.b[at].item(), oset.score[at].item())


def candidates(rows):
    """(f, g, b, score) rows as Assignments, for the reference collision rule."""
    return [Assignment(f, g, b) for f, g, b, _ in rows]


def enumerate_selected(arrays, ks, config, weights):
    """enumerate_options at each position of ``ks`` with all of them marked
    as re-optimized, as iterate_once calls it."""
    arrays.select(ks, True)
    try:
        return [enumerate_options(arrays, k, config, weights) for k in ks]
    finally:
        arrays.select(ks, False)


class TestScoring:
    def test_score_matches_objective_contribution(self):
        """ObjectiveWeights.score of one candidate is its beam's objective
        term, and enumerate_options scores the keep-as-is candidate with it."""
        w = ObjectiveWeights(beta1=2.0, beta2=0.5, beta3=0.25, beta5=1.5)
        s = scenario_with([Beam(id=1)])
        plan = FrequencyPlan({1: Assignment(3, 2, 2)})
        assert w.score(1, 3, 2, 2, None) == pytest.approx(objective_value(plan, w))
        oset = enumerate_against(s.beams[0], GRID, plan, s.restrictions, {1}, IterationConfig(n_ch=1), w)
        assert keep_as_is(oset) == (3, 2, 2, w.score(1, 3, 2, 2, None))

    def test_powers_are_the_table_values_of_the_widths(self):
        """enumerate_options reads each width's power from the table: every
        candidate, the keep-as-is one too, scores ObjectiveWeights.score at
        PowerTable.value, and a table narrower than the beam's widths raises
        the table's range error."""
        s = scenario_with([Beam(id=1, min_slots=2)])
        w = ObjectiveWeights(beta1=1.0, beta2=0.1, beta4=0.5)
        table = PowerTable(1, (1.5, 2.25, 3.0, 4.75), (1.0,) * 4, (True,) * 4)
        config = IterationConfig(n_ch=1, top_per_bandwidth=None)
        plan = FrequencyPlan({1: Assignment(2, 3, 3)})
        oset = enumerate_against(s.beams[0], GRID, plan, s.restrictions, {1}, config, w, {1: table})
        assert sorted({b for _, _, b, _ in oset.options}) == [2, 3, 4]
        assert oset.includes_original
        for f, g, b, score in [*oset.options, keep_as_is(oset)]:
            assert score == w.score(1, f, g, b, table.value(f, b))
        narrow = PowerTable(1, (1.5, 2.25), (1.0,) * 2, (True,) * 2)
        with pytest.raises(DomainError, match=r"beam 1: b=4 outside 1\.\.2"):
            enumerate_against(s.beams[0], GRID, all_inactive(s), s.restrictions, {1}, config, w, {1: narrow})

    def test_beta4_without_power_table_is_unsupported(self):
        """Each scorer raises the one missing-table error, also when another
        beam has a table."""
        w = ObjectiveWeights(beta4=0.5)
        s = scenario_with([Beam(id=1)])
        tables = {2: PowerTable(2, (1.0,) * 4, (1.0,) * 4, (True,) * 4)}
        for power_table in (None, tables):
            with pytest.raises(UnsupportedConfigurationError):
                objective_value(FrequencyPlan({1: Assignment(1, 1, 1)}), w, power_table)
            with pytest.raises(UnsupportedConfigurationError):
                w.score(1, 1, 1, 1, None)
            with pytest.raises(UnsupportedConfigurationError):  # the keep-as-is candidate's score
                enumerate_against(
                    s.beams[0], GRID, FrequencyPlan({1: Assignment(1, 1, 1)}), s.restrictions, {1},
                    IterationConfig(n_ch=1), w, power_table,
                )
            with pytest.raises(UnsupportedConfigurationError):
                enumerate_against(
                    s.beams[0], GRID, all_inactive(s), s.restrictions, {1},
                    IterationConfig(n_ch=1), w, power_table,
                )


class TestEnumerateOptions:
    CONFIG = IterationConfig(n_ch=1, top_per_bandwidth=None)

    def test_all_options_when_nothing_fixed(self):
        s = scenario_with([Beam(id=1)])
        oset = enumerate_against(
            s.beams[0], GRID, all_inactive(s), s.restrictions, {1},
            self.CONFIG, ObjectiveWeights(),
        )
        # 4 rows x sum_b (slots for b) = 4 * (4+3+2+1) = 40 candidates
        assert len(oset.options) == 40
        assert not oset.includes_original

    def test_options_avoid_fixed_intra_partner(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        plan = FrequencyPlan({1: Assignment.inactive(), 2: Assignment(1, 1, 4)})
        oset = enumerate_against(
            s.beams[0], GRID, plan, s.restrictions, {1},
            self.CONFIG, ObjectiveWeights(),
        )
        assert all(g != 1 for _, g, _, _ in oset.options)
        # the other three rows stay fully available
        assert len(oset.options) == 30

    def test_options_avoid_fixed_inter_partner_by_polarization(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], inter=[(1, 2)])
        plan = FrequencyPlan({1: Assignment.inactive(), 2: Assignment(1, 1, 4)})
        oset = enumerate_against(
            s.beams[0], GRID, plan, s.restrictions, {1},
            self.CONFIG, ObjectiveWeights(),
        )
        # row 1 and row 3 share polarization m=1 with the fixed beam
        assert all(g in (2, 4) for _, g, _, _ in oset.options)

    def test_partner_being_reoptimized_does_not_block(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        plan = FrequencyPlan({1: Assignment.inactive(), 2: Assignment(1, 1, 4)})
        oset = enumerate_against(
            s.beams[0], GRID, plan, s.restrictions, {1, 2},
            self.CONFIG, ObjectiveWeights(),
        )
        assert len(oset.options) == 40

    def test_cap_keeps_best_per_bandwidth(self):
        s = scenario_with([Beam(id=1)])
        config = IterationConfig(n_ch=1, top_per_bandwidth=1)
        w = ObjectiveWeights(beta1=1.0, beta2=0.1, beta3=0.01)
        oset = enumerate_against(
            s.beams[0], GRID, all_inactive(s), s.restrictions, {1}, config, w,
        )
        assert len(oset.options) == GRID.n_bw  # one per slot count
        # per slot count the best candidate is f=1, g=1 (lowest penalties)
        assert all(f == 1 and g == 1 for f, g, _, _ in oset.options)
        assert sorted(b for _, _, b, _ in oset.options) == [1, 2, 3, 4]

    def test_ranking_is_score_descending(self):
        s = scenario_with([Beam(id=1)])
        w = ObjectiveWeights(beta1=1.0, beta2=0.2, beta3=0.05)
        oset = enumerate_against(
            s.beams[0], GRID, all_inactive(s), s.restrictions, {1},
            self.CONFIG, w,
        )
        scores = [score for *_, score in oset.options]
        assert scores == sorted(scores, reverse=True)
        for f, g, b, score in oset.options:
            assert score == pytest.approx(w.score(1, f, g, b, None))

    def test_keep_as_is_candidate_present_iff_conflict_free(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        free = FrequencyPlan({1: Assignment(1, 2, 2), 2: Assignment(1, 1, 4)})
        oset = enumerate_against(
            s.beams[0], GRID, free, s.restrictions, {1}, self.CONFIG, ObjectiveWeights(),
        )
        assert oset.includes_original
        assert keep_as_is(oset)[:3] == (1, 2, 2)
        clash = FrequencyPlan({1: Assignment(1, 1, 2), 2: Assignment(1, 1, 4)})
        oset = enumerate_against(
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
                                 tuple(np.ones(grid.n_bw)), (True,) * grid.n_bw)
                for b in beams
            }
            cap = [None, 1, 2, 5][int(rng.integers(0, 4))]
            selected = {1} | {i for i in range(2, 6) if rng.random() < 0.3}
            got = enumerate_against(
                beams[0], grid, plan, restrictions, selected,
                IterationConfig(top_per_bandwidth=cap), weights, tables,
            )
            expected = ref_enumerate_options(
                beams[0], grid, plan, restrictions, selected, cap, weights, tables
            )
            keep = ref_keeps_as_is(beams[0], grid, plan, restrictions, selected)
            self.assert_ranking(got, expected, plan[1] if keep else None, weights, tables)

    # cap, beta2, beta3, beta4, min_slots: one reference run each
    WORKLOAD_CASES = {
        "cap10-power": (10, 0.01, 0.001, 0.05, 1),
        "cap1-beta2-0": (1, 0.0, 0.001, 0.0, 2),
        "uncapped-beta3-0": (None, 0.01, 0.0, 0.0, 1),
        "cap-above-free-blocks": (100_000, 0.0, 0.0, 0.05, 3),
        "min-slots-wider-than-span": (10, 0.01, 0.001, 0.0, 41),
    }

    @pytest.mark.parametrize("case", WORKLOAD_CASES)
    def test_matches_reference_at_workload_scale(self, case):
        """The benchmark's 40x8x2 grid (16 rows x 40 slots) with 40 restricted
        partners, most of them active and some selected: same candidates,
        order and float scores as the reference, including exact score ties
        (beta2 or beta3 = 0, power tables with tied per-width values)."""
        cap, beta2, beta3, beta4, min_slots = self.WORKLOAD_CASES[case]
        rng = np.random.default_rng(sorted(self.WORKLOAD_CASES).index(case))
        grid = FrequencyGrid(n_bw=40, n_fr=8, n_p=2)
        beam = Beam(id=1, min_slots=min_slots)
        partners = range(2, 42)
        own = [(1, j) for j in partners]
        intra = [p for p in own if rng.random() < 0.8]
        inter = [p for p in own if p not in intra or rng.random() < 0.2]
        # pairs between partners reach PlanArrays, never this beam's blocks
        others = [(i, i + 1) for i in partners if i + 1 in partners]
        restrictions = RestrictionSets.of(intra=intra + others, inter=inter)
        plan = {1: Assignment(int(rng.integers(1, 38)), int(rng.integers(1, 17)), 3)}
        for j in partners:
            b = int(rng.integers(1, 5))
            plan[j] = (
                Assignment(int(rng.integers(1, 42 - b)), int(rng.integers(1, 17)), b)
                if j % 10 else Assignment.inactive()
            )
        plan = FrequencyPlan(plan)
        selected = {1} | {j for j in partners if j % 7 == 0}  # all active
        weights = ObjectiveWeights(beta1=1.0, beta2=beta2, beta3=beta3, beta4=beta4)
        tables = {1: PowerTable(1, tuple(rng.choice([2.0, 5.0], size=40)), (1.0,) * 40, (True,) * 40)}
        assert sum(plan[j].active for j in partners if j not in selected) == 31

        got = enumerate_against(
            beam, grid, plan, restrictions, selected,
            IterationConfig(top_per_bandwidth=cap), weights, tables,
        )
        own_pairs = RestrictionSets.of(intra=intra, inter=inter)
        expected = ref_enumerate_options(beam, grid, plan, own_pairs, selected, cap, weights, tables)
        assert (len(expected) > 0) == (min_slots <= 40)
        keep = ref_keeps_as_is(beam, grid, plan, own_pairs, selected)
        self.assert_ranking(got, expected, plan[1] if keep else None, weights, tables)

    @staticmethod
    def assert_ranking(got, expected, keep, weights, tables):
        """``got`` holds the reference's ranked candidates, and the
        reference keep-as-is assignment ``keep`` (or None) with its score at
        the rank rule's position: after every candidate scoring at least as
        much."""
        assert got.options == expected
        assert len(got.options) + got.includes_original == len(got)
        if keep is None:
            assert keep_as_is(got) is None
        else:
            score = _ref_score(1, keep, weights, tables)
            assert keep_as_is(got) == (keep.f, keep.g, keep.b, score)
            assert got.initial == sum(s >= score for *_, s in expected)

    def test_keep_as_is_follows_its_twin(self):
        """A keep-as-is assignment that is also a ranked candidate is kept
        twice, the keep-as-is row after its ranked twin and after every
        candidate tied with it."""
        s = scenario_with([Beam(id=1)])
        w = ObjectiveWeights(beta1=1.0, beta2=0.0, beta3=0.0)  # every width-2 block ties
        plan = FrequencyPlan({1: Assignment(2, 3, 2)})
        oset = enumerate_against(s.beams[0], GRID, plan, s.restrictions, {1}, self.CONFIG, w)
        twin = (2, 3, 2, w.score(1, 2, 3, 2, None))
        assert oset.options.count(twin) == 1 and keep_as_is(oset) == twin
        rows = list(zip(oset.f.tolist(), oset.g.tolist(), oset.b.tolist(), oset.score.tolist()))
        assert rows.index(twin) < oset.initial == sum(score >= twin[3] for *_, score in oset.options)
        assert len(oset) == len(oset.options) + 1 == 41


class TestSubproblem:
    def build(self, seed=0, n_pick=3):
        rng = np.random.default_rng(seed)
        s, w = random_instance(rng, max_beams=4, max_bw=3)
        plan = PlanArrays(s, s.restrictions, greedy_warm_start(s, s.restrictions))
        picked = list(range(min(n_pick, len(s.beams))))  # the first beams: ids 1, 2, ...
        config = IterationConfig(n_ch=len(picked), top_per_bandwidth=None)
        return s, w, enumerate_selected(plan, picked, config, w), plan

    def test_structure_one_constraint_per_beam(self):
        """One exactly-one or activation row per beam, its variables in the
        search's rank order: x_orig_i sits at the keep-as-is rank."""
        for seed in range(3):
            s, w, osets, plan = self.build(seed=seed)
            model = ref_build_subproblem(osets, plan)
            rows = {c.name: [v for _, v in c.terms] for c in model.constraints}
            for oset in osets:
                i, at, f, g, b = oset.beam_id, oset.initial, oset.f, oset.g, oset.b
                names = rows[f"act_{i}"][:-1] if at is None else rows[f"one_{i}"]
                # the start is valid, so every active sampled beam keeps its
                # current assignment as a candidate
                active, *current = plan.state[np.searchsorted(plan.ids, i)].tolist()
                assert (at is None) == (not active)
                assert at is None or [f[at], g[at], b[at]] == current
                assert len(names) == len(f)
                for r, name in enumerate(names):
                    assert name == (f"x_orig_{i}" if r == at else f"x_{i}_{f[r]}_{g[r]}_{b[r]}")

    @pytest.mark.parametrize("seed", range(6))
    def test_milp_subproblem_matches_direct_search(self, seed):
        """ref_build_subproblem's optimum is the search's total, both over
        dense reference matrices (keep-as-is last, through the rank-order
        adapter) and over the OptionSets' own scores and keep-as-is ranks
        with _subproblem's kernels, the input iterate_once passes."""
        s, w, osets, plan = self.build(seed=seed)
        model = ref_build_subproblem(osets, plan)
        milp_sol = solve_exact(model)
        assert milp_sol.status == "optimal"

        scores, allow_none, full = [], [], []
        for oset in osets:
            opts = oset.options + ([keep_as_is(oset)] if oset.includes_original else [])
            full.append(candidates(opts))
            scores.append([score for *_, score in opts])
            allow_none.append(not oset.includes_original)
        conflict = {}
        intra, inter = pair_sets(s.restrictions)
        for a in range(len(osets)):
            for b in range(a + 1, len(osets)):
                i, j = osets[a].beam_id, osets[b].beam_id
                key = (min(i, j), max(i, j))
                ii, ie = key in intra, key in inter
                if not (ii or ie):
                    continue
                conflict[(a, b)] = np.array(
                    [
                        [ref_options_collide(u, v, ii, ie, s.grid.n_p) for v in full[b]]
                        for u in full[a]
                    ]
                )
        _, dense_total = solve_dense_selection(scores, allow_none, conflict)
        assert milp_sol.objective == pytest.approx(dense_total, abs=1e-9)

        kernels = iterative._subproblem(osets, plan)
        _, total = solve_option_selection(
            [o.score for o in osets], [o.initial is None for o in osets], kernels,
            initial=[o.initial for o in osets],
        )
        assert milp_sol.objective == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("beta4", [0.0, 0.05], ids=["no-power", "power-aware"])
    def test_search_matches_reference_at_production_size(self, beta4, monkeypatch):
        """The subproblems iterate_once builds on the acceptance large_case
        (25 beams of about 400 candidates, about 80 restricted pairs) give
        the reference search's picks and total at node budgets 1, 50, 100
        and 2000, the conflict kernels expanded into dense matrices, with
        and without l_pipeline's power term (beta4 = 0.05 on power_tables_for
        tables). Without it, at 100 the third subproblem's result depends on
        counting the children the parent prunes."""
        scenario, restrictions, warm = large_case()
        tables = power_tables_for(scenario.beams, scenario.grid, LinkBudget()) if beta4 else None
        captured = self.capture_subproblems(scenario, restrictions, warm, beta4, tables, monkeypatch)
        self.assert_search_matches_reference(captured)

    def test_search_matches_reference_with_none_eligible_groups(self, monkeypatch):
        """The same on a start with every third beam inactive, so that
        _subproblem offers None to the sampled inactive beams: some groups
        of the captured subproblems allow None, and the search's None child,
        its 0.0 gain cap and its 0.0 entry for an emptied group give the
        reference's picks and totals."""
        scenario, restrictions, warm = large_case()
        start = FrequencyPlan({
            i: Assignment.inactive() if k % 3 == 0 else a for k, (i, a) in enumerate(sorted(warm.assignments.items()))
        })
        captured = self.capture_subproblems(scenario, restrictions, start, 0.0, None, monkeypatch)
        assert any(any(allow_none) for _, allow_none, _, _ in captured)
        self.assert_search_matches_reference(captured)

    @staticmethod
    def capture_subproblems(scenario, restrictions, start, beta4, tables, monkeypatch):
        """The (scores, allow_none, pair_conflict, initial) of the first 3
        subproblems iterate_once solves from ``start`` with 25 sampled
        beams."""
        captured = []

        def capture(scores, allow_none, pair_conflict, initial=None, node_budget=0):
            captured.append((scores, allow_none, pair_conflict, initial))
            return solve_option_selection(scores, allow_none, pair_conflict, initial, node_budget)

        monkeypatch.setattr(iterative, "solve_option_selection", capture)
        state = iterative.IterationState(
            scenario=scenario, weights=ObjectiveWeights(beta1=1.0, beta2=0.01, beta3=0.001, beta4=beta4),
            config=IterationConfig(n_ch=25, seed=0), arrays=PlanArrays(scenario, restrictions, start),
            power_table=tables,
        )
        rng = np.random.default_rng(0)
        for _ in range(3):
            state = iterative.iterate_once(state, rng)
        assert len(captured) == 3
        return captured

    @staticmethod
    def assert_search_matches_reference(captured):
        for scores, allow_none, pair_conflict, initial in captured:
            sizes = [len(s) for s in scores]
            assert len(sizes) == 25 and np.mean(sizes) > 350 and len(pair_conflict) > 70
            dense = {}
            for (a, b), conf in pair_conflict.items():
                mat = dense_conflicts(conf.rows, sizes[a], sizes[b])
                assert np.array_equal(dense_conflicts(conf.cols, sizes[b], sizes[a]), mat.T)
                dense[(a, b)] = mat
            for node_budget in (1, 50, 100, 2000):
                got = solve_option_selection(
                    scores, allow_none, pair_conflict, initial, node_budget
                )
                expected = ref_solve_option_selection(
                    scores, allow_none, dense, initial, node_budget
                )
                assert got == expected, node_budget

    def test_restricted_pairs_match_set_lookups_for_any_ids(self):
        """_subproblem's kernels are keyed by the same (a, b), with the same
        by_pol, in the same order, as looking every pair of sample positions
        up in sets of the pairs, for sampled ids in any order, negative ones
        and ones past 32 bits included, in a plan whose beams 100 and 101
        have partners but are never sampled."""
        rng = np.random.default_rng(31)
        empty = np.zeros(0, dtype=np.int64)
        for _ in range(300):
            pool = [-2**62, -7, 0, 3, 5, 9, 2**33, 2**62, 11, 12]
            ids = rng.choice(pool, size=int(rng.integers(0, 9)), replace=False).tolist()
            pairs = [(i, j) for i in ids + [100, 101] for j in ids + [100, 101] if i != j]
            r = RestrictionSets(intra=[p for p in pairs if rng.random() < 0.2],
                                inter=[p for p in pairs if rng.random() < 0.2])
            intra, inter = pair_sets(r)
            expected = []
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    key = (min(ids[a], ids[b]), max(ids[a], ids[b]))
                    if key in inter or key in intra:
                        expected.append((a, b, key in inter))
            plan = PlanArrays(Scenario(grid=GRID, beams=tuple(Beam(id=i) for i in ids + [100, 101]), geometry=GEOM), r)
            osets = [OptionSet(i, empty, empty, empty, empty.astype(float), GRID) for i in ids]
            kernels = iterative._subproblem(osets, plan)
            assert [(a, b, kernel.rows.by_pol) for (a, b), kernel in kernels.items()] == expected


class TestHighsOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_uncapped_search_matches_highs(self, seed):
        """At 6-10 sampled beams, beyond the brute-force guard, the exact
        (node_budget=0) search over the kernel conflicts reaches HiGHS's
        optimum of the same subproblem."""
        pytest.importorskip("scipy")
        rng = np.random.default_rng(1700 + seed)
        grid = FrequencyGrid(
            n_bw=int(rng.integers(3, 7)), n_fr=int(rng.integers(1, 3)),
            n_p=int(rng.integers(1, 3)),
        )
        n = 14
        beams = tuple(
            Beam(id=i, demand_bps=float(rng.uniform(1e6, 1e8)),
                 min_slots=int(rng.integers(1, 3)))
            for i in range(1, n + 1)
        )
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        s = Scenario(
            grid=grid, beams=beams, geometry=GEOM,
            restrictions=RestrictionSets.of(
                intra=[p for p in pairs if rng.random() < 0.4],
                inter=[p for p in pairs if rng.random() < 0.15],
            ),
        )
        weights = ObjectiveWeights(
            beta1=1.0, beta2=float(rng.uniform(0, 0.3)), beta3=float(rng.uniform(0, 0.3)),
            beta5=float(rng.choice([0.0, 0.5])),
        )
        warm = greedy_warm_start(s, s.restrictions)
        n_pick = int(rng.integers(6, 11))
        picked = sorted(int(i) for i in rng.choice(np.arange(1, n + 1), size=n_pick, replace=False))
        config = IterationConfig(n_ch=len(picked), top_per_bandwidth=3)
        plan = PlanArrays(s, s.restrictions, warm)
        osets = enumerate_selected(plan, [i - 1 for i in picked], config, weights)  # ids 1..n
        status, highs = solve_with_scipy_milp(ref_build_subproblem(osets, plan))
        assert status == 0

        _, total = solve_option_selection(
            [o.score for o in osets], [o.initial is None for o in osets], iterative._subproblem(osets, plan),
            node_budget=0,
        )
        assert total == pytest.approx(highs, abs=1e-6)


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
            enumerate_against(beam, grid, plan, restrictions, {1, 2}, config, ObjectiveWeights())
            for beam in beams[:2]
        ]
        opts = [candidates(oset.options) for oset in osets]  # no keep-as-is: both are inactive
        is_intra, is_inter = ((1, 2) in pairs for pairs in pair_sets(restrictions))
        kernel = PairConflicts(osets[0], osets[1], by_pol=is_inter)
        assert kernel.size == len(opts[0]) * len(opts[1])
        for u, ou in enumerate(opts[0]):
            expected = [ref_options_collide(ou, ov, is_intra, is_inter, grid.n_p) for ov in opts[1]]
            assert [bool(kernel.rows[u] >> v & 1) for v in range(len(opts[1]))] == expected
            assert kernel.rows[u] < 1 << len(opts[1])
        for v, ov in enumerate(opts[1]):
            expected = [ref_options_collide(ou, ov, is_intra, is_inter, grid.n_p) for ou in opts[0]]
            assert [bool(kernel.cols[v] >> u & 1) for u in range(len(opts[0]))] == expected


@st.composite
def _iteration_case(draw):
    """A small scenario with drawn domains, gateways, drawn weights and
    restriction pairs stored in either order, a valid start plan and an
    iteration config."""
    grid = FrequencyGrid(
        n_bw=draw(st.integers(2, 6)), n_fr=draw(st.integers(1, 3)), n_p=draw(st.integers(1, 2))
    )
    n = draw(st.integers(2, 7))
    beams = []
    for i in range(1, n + 1):
        rows = slots = None
        if draw(st.booleans()):
            lo = draw(st.integers(1, grid.n_rows))
            rows = (lo, draw(st.integers(lo, grid.n_rows)))
        if draw(st.booleans()):
            lo = draw(st.integers(1, grid.n_bw))
            slots = (lo, draw(st.integers(lo, grid.n_bw)))
        width = (slots[1] - slots[0] + 1) if slots else grid.n_bw
        beams.append(Beam(
            id=i, kind=draw(st.sampled_from(["user", "gateway"])),
            demand_bps=draw(st.sampled_from([1e6, 5e6])), min_slots=draw(st.integers(1, width)),
            allowed_rows=rows, allowed_slots=slots,
        ))
    intra, inter = set(), set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pair = (j, i) if draw(st.booleans()) else (i, j)
            kind = draw(st.sampled_from(["none", "intra", "inter", "both"]))
            if kind in ("intra", "both"):
                intra.add(pair)
            if kind in ("inter", "both"):
                inter.add(pair)
    # built directly; the constructor stores either drawn orientation as (i, j)
    restrictions = RestrictionSets(frozenset(intra), frozenset(inter))
    betas = st.sampled_from([0.0, 0.1, 0.5, -0.25])
    weights = ObjectiveWeights(
        beta1=draw(st.sampled_from([1.0, 2.0, 0.5])), beta2=draw(betas), beta3=draw(betas), beta5=draw(betas),
    )
    s = Scenario(grid=grid, beams=tuple(beams), geometry=GEOM, restrictions=restrictions)
    if draw(st.booleans()):
        start = greedy_warm_start(s, restrictions)
    else:
        f = [draw(st.integers(1, grid.n_bw)) for _ in beams]
        start = sanitize_warm_start(FrequencyPlan({
            beam.id: Assignment(f[k], draw(st.integers(1, grid.n_rows)),
                                draw(st.integers(1, grid.n_bw - f[k] + 1)))
            for k, beam in enumerate(beams)
        }), s, restrictions)
    config = IterationConfig(
        n_ch=draw(st.integers(1, n)), top_per_bandwidth=draw(st.sampled_from([None, 1, 2])),
        node_budget=draw(st.sampled_from([0, 1, 3])), seed=draw(st.integers(0, 2**16)),
    )
    return s, weights, start, config


@st.composite
def _power_case(draw):
    """An _iteration_case on a 50 MHz-slot grid with its power tables and
    power-aware weights: beta4 > 0."""
    s, _, start, config = draw(_iteration_case())
    s = dataclasses.replace(s, grid=dataclasses.replace(s.grid, slot_bandwidth_hz=50e6))
    s = dataclasses.replace(s, beams=tuple(
        dataclasses.replace(b, demand_bps=draw(st.sampled_from([1e6, 1e8, 4e8]))) for b in s.beams
    ))
    tables = power_tables_for(s.beams, s.grid, LinkBudget())
    weights = ObjectiveWeights(
        beta1=draw(st.sampled_from([1.0, 0.5, 2.0])), beta2=draw(st.sampled_from([0.0, 0.01, 10.0])),
        beta3=draw(st.sampled_from([0.0, 0.001])), beta4=draw(st.sampled_from([0.01, 0.05, 0.2])),
        beta5=draw(st.sampled_from([0.7, -0.3, 0.0, -1.5])),
    )
    return s, weights, start, config, tables


def assert_state_matches_plan(state, s):
    """The arrays and cached scores of ``state``, a run on scenario ``s``,
    are those of a state read afresh from its plan, and the last record
    states its objective and normalized bandwidth exactly."""
    plan = state.plan
    fresh = PlanArrays(s, RestrictionSets(), plan)  # partners play no part in what is compared
    arrays = state.arrays
    assert arrays.ids.tolist() == sorted(plan.assignments)
    assert arrays.state.tolist() == fresh.state.tolist()
    assert not arrays.selected.any()
    assert arrays.first.tolist() == fresh.first.tolist()
    assert arrays.span.tolist() == fresh.span.tolist()
    assert state.scores == beam_scores(plan, state.weights, state.power_table)
    if state.trace.records:
        record = state.trace.records[-1]
        assert record.objective == objective_value(plan, state.weights, state.power_table)
        assert record.normalized_bw == total_normalized_bandwidth(plan, s.grid, s.geometry.n_s)


class TestIterationProperties:
    @settings(max_examples=120, deadline=None)
    @given(case=_iteration_case())
    def test_every_step_validates_and_never_lowers_the_objective(self, case):
        """Also at node_budget=1, where the search stops at once and must
        fall back to its incumbent, the keep-as-is selection."""
        s, weights, start, config = case
        assert validate_plan(start, s.grid, s.restrictions, s.beams) == []
        state = iterative.IterationState(
            scenario=s, weights=weights, config=config, arrays=PlanArrays(s, s.restrictions, start),
        )
        assert_state_matches_plan(state, s)
        rng = np.random.default_rng(config.seed)
        before = state.objective()
        for _ in range(6):
            state = iterative.iterate_once(state, rng)
            assert validate_plan(state.plan, s.grid, s.restrictions, s.beams) == []
            assert_state_matches_plan(state, s)
            after = state.objective()
            assert after >= before - 1e-9
            assert state.trace.records[-1].objective == after
            before = after

    @settings(max_examples=80, deadline=None)
    @given(case=_power_case())
    def test_power_aware_steps_report_their_plan_exactly(self, case):
        """With power tables and beta4 > 0, every step's plan validates,
        the objective never falls, and its record's objective and
        normalized bandwidth are exactly those of the step's plan."""
        s, weights, start, config, tables = case
        state = iterative.IterationState(
            scenario=s, weights=weights, config=config, arrays=PlanArrays(s, s.restrictions, start),
            power_table=tables,
        )
        rng = np.random.default_rng(config.seed)
        before = objective_value(start, weights, tables)
        for _ in range(6):
            record = iterative.iterate_once(state, rng).trace.records[-1]
            assert validate_plan(state.plan, s.grid, s.restrictions, s.beams) == []
            assert record.objective >= before - 1e-9
            assert record.objective == objective_value(state.plan, weights, tables)
            assert record.normalized_bw == total_normalized_bandwidth(state.plan, s.grid, s.geometry.n_s)
            assert_state_matches_plan(state, s)
            before = record.objective


def ref_blocked_cells(beam_id, grid, plan, restrictions, selected):
    """_blocked_cells from _ref_blocked: a cell is blocked when a one-slot
    candidate on it collides with an active partner outside ``selected``."""
    blocked = np.array([
        [_ref_blocked(beam_id, Assignment(f, g, 1), grid, plan, restrictions, selected)
         for f in range(1, grid.n_bw + 1)]
        for g in range(1, grid.n_rows + 1)
    ], dtype=bool)
    return np.concatenate((np.zeros((grid.n_rows, 1), dtype=bool), blocked), axis=1)


class TestPlanArrays:
    @pytest.mark.parametrize("seed", range(12))
    def test_blocked_prefix_matches_scalar_reference(self, seed):
        """On random plans, n_p of 1 and 2, inactive partners, pairs that
        are both intra and inter, and a last beam with no partners (an
        empty CSR row), for a random selection and for one holding every
        partner of the beam. Each k alone, and every position in one
        batch of a random order, a position repeated in it."""
        rng = np.random.default_rng(2100 + seed)
        for _ in range(8):
            grid = FrequencyGrid(
                n_bw=int(rng.integers(1, 9)), n_fr=int(rng.integers(1, 4)), n_p=1 + seed % 2
            )
            n = int(rng.integers(2, 9))
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            kinds = rng.choice(["none", "intra", "inter", "both"], size=len(pairs))
            restrictions = RestrictionSets.of(
                intra=[p for p, k in zip(pairs, kinds) if k in ("intra", "both")],
                inter=[p for p, k in zip(pairs, kinds) if k in ("inter", "both")],
            )
            plan = {}
            for i in range(1, n + 2):  # beam n + 1 has no partners
                f = int(rng.integers(1, grid.n_bw + 1))
                plan[i] = (
                    Assignment(f, int(rng.integers(1, grid.n_rows + 1)),
                               int(rng.integers(1, grid.n_bw - f + 2)))
                    if rng.random() < 0.7 else Assignment.inactive()
                )
            plan = FrequencyPlan(plan)
            s = Scenario(grid=grid, beams=tuple(Beam(id=i) for i in plan.assignments), geometry=GEOM)
            arrays = PlanArrays(s, restrictions, plan)
            assert arrays.indptr[n] == arrays.indptr[n + 1]  # beam n + 1: an empty CSR row
            for k, beam_id in enumerate(arrays.ids.tolist()):  # ids 1..n + 1
                partners = {j for p, kind in zip(pairs, kinds) if kind != "none" and beam_id in p for j in p} - {beam_id}
                for selected in ({i for i in plan.assignments if rng.random() < 0.3}, partners):
                    arrays.select([i - 1 for i in selected], True)
                    expected = ref_blocked_cells(beam_id, grid, plan, restrictions, selected)
                    assert _blocked_cells(arrays, [k]).tolist() == [expected.tolist()]
                    if selected is partners:
                        assert not expected.any()
                    arrays.select([i - 1 for i in selected], False)
            selected = {i for i in plan.assignments if rng.random() < 0.3}
            arrays.select([i - 1 for i in selected], True)
            ks = [*rng.permutation(n + 1).tolist(), int(rng.integers(0, n + 1))]
            got = _blocked_cells(arrays, ks)
            assert got.shape == (n + 2, grid.n_rows, grid.n_bw + 1)
            for t, k in enumerate(ks):
                assert got[t].tolist() == ref_blocked_cells(k + 1, grid, plan, restrictions, selected).tolist()

    def test_partner_ids_outside_the_plan_raise_domain_error(self):
        restrictions = RestrictionSets.of(intra=[(1, 2), (2, 9)])
        with pytest.raises(DomainError, match=r"intra pair \(2, 9\) references unknown beam"):
            PlanArrays(Scenario(grid=GRID, beams=(Beam(id=1), Beam(id=2)), geometry=GEOM), restrictions)

    def test_plan_must_name_exactly_the_scenario_beams(self):
        """Positions index the scenario's beams and the plan's rows alike,
        so a plan that omits a scenario beam or names an unknown one is
        rejected."""
        s = scenario_with([Beam(id=i) for i in (1, 2, 3)])
        on = Assignment(1, 1, 1)
        for assignments, problem in (
            ({1: on, 2: on}, r"plan missing beams \[3\]"),
            ({1: on, 2: on, 3: on, 4: on}, r"plan names unknown beams \[4\]"),
        ):
            with pytest.raises(PlanStructureError, match=problem):
                PlanArrays(s, s.restrictions, FrequencyPlan(assignments))

    def test_starts_inactive_over_the_beams_in_id_order(self):
        s = scenario_with([Beam(id=i) for i in (42, -5, 10_000, 3, 7)])
        arrays = PlanArrays(s, s.restrictions)
        assert arrays.ids.tolist() == [-5, 3, 7, 42, 10_000]
        assert [b.id for b in arrays.beams] == arrays.ids.tolist()
        assert not arrays.state.any() and arrays.state.shape == (5, 4)
        assert arrays.plan().assignments == {i: Assignment.inactive() for i in (-5, 3, 7, 42, 10_000)}

    def test_deactivated_beam_leaves_the_cached_state(self):
        """A picked beam without a keep-as-is candidate (its row is outside
        its allowed rows) that scores below 0 everywhere is deactivated;
        its cached score drops to 0.0 and its slots leave the total."""
        s = scenario_with([Beam(id=1), Beam(id=2, allowed_rows=(2, 4)), Beam(id=3)], intra=[(1, 2)])
        start = FrequencyPlan({1: Assignment(1, 1, 2), 2: Assignment(3, 1, 2), 3: Assignment(1, 2, 4)})
        # b - 10 g + 12: at least 3 on row 1, at most -4 from row 2 on, where
        # beam 2's rows start; beam 3 keeps a candidate, so only beam 2 can go
        state = iterative.IterationState(
            scenario=s, config=IterationConfig(n_ch=3), arrays=PlanArrays(s, s.restrictions, start),
            weights=ObjectiveWeights(beta2=10.0, beta5=12.0),
        )
        iterative.iterate_once(state, np.random.default_rng(0))
        assert not state.plan[2].active
        assert state.scores[1] == 0.0  # beam 2's position
        assert_state_matches_plan(state, s)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_records_state_their_plans_exactly_at_scale(self, seed):
        """98 beams with power tables, beta4 > 0 and beta5 != 0: after
        every iteration the cached state is that of the plan, and the
        record's objective and normalized bandwidth are exactly
        objective_value and total_normalized_bandwidth of it."""
        s = generate_synthetic(
            seed=7, n_users=100, grid=FrequencyGrid(n_bw=40, n_fr=8, n_p=2, slot_bandwidth_hz=50e6),
            geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
        )
        restrictions = derive_restrictions(s)
        tables = power_tables_for(s.beams, s.grid, LinkBudget())
        weights = ObjectiveWeights(beta1=1.0, beta2=0.01, beta3=0.001, beta4=0.05, beta5=0.7)
        state = iterative.IterationState(
            scenario=s, weights=weights, power_table=tables, config=IterationConfig(n_ch=25, seed=seed),
            arrays=PlanArrays(s, restrictions, greedy_warm_start(s, restrictions)),
        )
        rng = np.random.default_rng(seed)
        for _ in range(4):
            iterative.iterate_once(state, rng)
            assert_state_matches_plan(state, s)


class TestWarmStartAndRepair:
    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_warm_start_valid_and_deterministic(self, seed):
        rng = np.random.default_rng(300 + seed)
        s, _ = random_instance(rng)
        a = greedy_warm_start(s, s.restrictions)
        b = greedy_warm_start(s, s.restrictions)
        assert a.assignments == b.assignments
        assert validate_plan(a, s.grid, s.restrictions, s.beams) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_warm_start_matches_first_fit_reference(self, seed):
        """Same placements as a scalar first-fit scan (rows g, then first
        slots f), with domain restrictions, n_p of 1 and 2, demand ties and
        min_slots wider than the allowed span."""
        rng = np.random.default_rng(1300 + seed)
        for _ in range(30):
            grid = FrequencyGrid(
                n_bw=int(rng.integers(2, 9)), n_fr=int(rng.integers(1, 4)),
                n_p=int(rng.integers(1, 3)),
            )
            n = int(rng.integers(2, 9))
            beams = []
            for i in range(1, n + 1):
                rows = slots = None
                if rng.random() < 0.4:
                    lo = int(rng.integers(1, grid.n_rows + 1))
                    rows = (lo, int(rng.integers(lo, grid.n_rows + 1)))
                if rng.random() < 0.4:
                    lo = int(rng.integers(1, grid.n_bw + 1))
                    slots = (lo, int(rng.integers(lo, grid.n_bw + 1)))
                width = (slots[1] - slots[0] + 1) if slots else grid.n_bw
                min_slots = int(rng.integers(1, width + 1))
                if rng.random() < 0.1:
                    min_slots = width + int(rng.integers(1, 3))  # fits nowhere
                beams.append(Beam(
                    id=i, demand_bps=float(rng.choice([1e6, 5e6, 2e7])),
                    min_slots=min_slots, allowed_rows=rows, allowed_slots=slots,
                ))
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            d_intra, d_inter = rng.choice([0.0, 0.5, 1.0], size=2)
            s = Scenario(
                grid=grid, beams=tuple(beams), geometry=GEOM,
                restrictions=RestrictionSets.of(
                    intra=[p for p in pairs if rng.random() < d_intra],
                    inter=[p for p in pairs if rng.random() < d_inter],
                ),
            )
            got = greedy_warm_start(s, s.restrictions)
            assert got.assignments == ref_greedy_warm_start(s, s.restrictions).assignments
            assert validate_plan(got, s.grid, s.restrictions, s.beams) == []

    @pytest.mark.parametrize("fit_block_cells", [None, 1 << 11, 1, 1 << 20])
    @pytest.mark.parametrize("n_bw", [63, 64, 65, 130])
    def test_first_fit_in_blocks_matches_reference(self, n_bw, fit_block_cells, monkeypatch):
        """40-90 beams, placed in several blocks (of _FIT_BLOCK_CELLS, of a
        smaller size and of one beam, so no partner is in the block) or in
        one block (every partner is), on grids whose row fields cross a
        64-bit word; with allowed rows, slot windows that many beams share,
        min_slots 1-4, n_p 1 and 2, pairs of either kind or both, demand
        ties and beams that fit nowhere. The PlanArrays _first_fit places
        them in holds the reference plan's state, first and span."""
        if fit_block_cells is not None:
            monkeypatch.setattr(iterative, "_FIT_BLOCK_CELLS", fit_block_cells)
        rng = np.random.default_rng(4100 + n_bw)
        for case in range(4):
            grid = FrequencyGrid(n_bw=n_bw, n_fr=int(rng.integers(4, 8)), n_p=1 + case % 2)
            per_block = iterative._FIT_BLOCK_CELLS // ((grid.n_rows + grid.n_p) * (n_bw + 2))
            n = int(rng.integers(min(max(40, per_block + 1), 90), 91))  # several blocks, one at 1 << 20
            beams = []
            for i in range(1, n + 1):
                rows = slots = None
                if rng.random() < 0.3:
                    lo = int(rng.integers(1, grid.n_rows + 1))
                    rows = (lo, int(rng.integers(lo, grid.n_rows + 1)))
                if rng.random() < 0.6:
                    lo = int(rng.choice([1, n_bw // 2, n_bw - 5]))
                    slots = (lo, lo + int(rng.integers(0, 6)))
                min_slots = int(rng.integers(1, 5))
                beams.append(Beam(
                    id=i, demand_bps=float(rng.choice([1e6, 5e6, 2e7])),
                    min_slots=min_slots, allowed_rows=rows, allowed_slots=slots,
                ))
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            d_intra, d_inter = rng.choice([0.1, 0.3]), rng.choice([0.05, 0.2])
            s = Scenario(
                grid=grid, beams=tuple(beams), geometry=GEOM,
                restrictions=RestrictionSets.of(
                    intra=[p for p in pairs if rng.random() < d_intra],
                    inter=[p for p in pairs if rng.random() < d_inter],
                ),
            )
            expected = ref_greedy_warm_start(s, s.restrictions)
            arrays = iterative._first_fit(s, s.restrictions)
            assert arrays.plan().assignments == expected.assignments
            assert greedy_warm_start(s, s.restrictions).assignments == expected.assignments
            want = PlanArrays(s, s.restrictions, expected)
            for name in ("state", "first", "span"):
                assert getattr(arrays, name).tolist() == getattr(want, name).tolist()
            assert not all(a.active for a in expected.assignments.values())  # some fit nowhere

    def test_greedy_warm_start_scans_rows_before_slots(self):
        # beam 1 (higher demand) takes slots 1-2 of row 1; beam 2 then
        # fits at f=3 on row 1 before f=1 on row 2
        s = scenario_with(
            [Beam(id=1, demand_bps=2.0, min_slots=2), Beam(id=2, demand_bps=1.0, min_slots=2)],
            intra=[(1, 2)],
        )
        plan = greedy_warm_start(s, s.restrictions)
        assert plan[1] == Assignment(1, 1, 2)
        assert plan[2] == Assignment(3, 1, 2)

    def test_greedy_warm_start_places_the_largest_demands_first(self):
        """Two of three mutually intra-paired beams fit a 2-slot, 1-row
        grid: the two largest demands. A NaN demand, which would break the
        order and leave beam 3 inactive, is rejected by Beam."""
        grid = FrequencyGrid(n_bw=2, n_fr=1, n_p=1)
        with pytest.raises(DomainError, match="demand_bps"):
            Beam(id=2, demand_bps=float("nan"))
        beams = (Beam(id=1, demand_bps=1.0), Beam(id=2, demand_bps=3.0), Beam(id=3, demand_bps=5.0))
        s = Scenario(grid=grid, beams=beams, geometry=GEOM,
                     restrictions=RestrictionSets.of(intra=[(1, 2), (1, 3), (2, 3)]))
        plan = greedy_warm_start(s, s.restrictions)
        assert [plan[i] for i in (1, 2, 3)] == [Assignment.inactive(), Assignment(2, 1, 1), Assignment(1, 1, 1)]

    def test_sanitize_repairs_invalid_start(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        bad = FrequencyPlan({1: Assignment(1, 1, 4), 2: Assignment(2, 1, 4)})
        fixed = sanitize_warm_start(bad, s, s.restrictions)
        assert validate_plan(fixed, s.grid, s.restrictions, s.beams) == []
        # deterministic repair deactivates the higher id of the clash
        assert fixed[1].active and not fixed[2].active

    def test_sanitize_fills_missing_beams(self):
        s = scenario_with([Beam(id=1), Beam(id=2)])
        partial = FrequencyPlan({1: Assignment(1, 1, 1)})
        fixed = sanitize_warm_start(partial, s, s.restrictions)
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
            fixed = sanitize_warm_start(plan, s, s.restrictions)
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
        fixed = sanitize_warm_start(every_beam_collides, s, s.restrictions)
        assert len(calls) <= 1
        assert validate_plan(fixed, s.grid, s.restrictions, s.beams) == []
        # beam 1 collides with every other beam and has the lowest id
        assert [i for i, _ in fixed.active_items()] == [1]


class TestIterateOnce:
    def test_advances_the_state_in_place(self):
        """The input state is the returned one, one iteration on with one
        trace record per iteration, so no earlier state shares a later
        record."""
        s = scenario_with([Beam(id=i) for i in (1, 2, 3)], intra=[(1, 2)], inter=[(2, 3)])
        state = iterative.IterationState(
            scenario=s, weights=ObjectiveWeights(), config=IterationConfig(n_ch=2),
            arrays=PlanArrays(s, s.restrictions),
        )
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            assert iterative.iterate_once(state, rng) is state
            assert [r.iteration for r in state.trace.records] == list(range(1, n + 1))
            assert state.trace.records[-1].objective == state.objective()

    def test_deactivating_a_row_with_leftover_fields_is_a_change(self):
        """An inactive start row that keeps its f, g, b differs from
        Assignment.inactive(), so staying unserved rewrites it and counts in
        the trace's beams_changed column."""
        s = scenario_with([Beam(id=1)])
        state = iterative.IterationState(
            scenario=s, weights=ObjectiveWeights(beta1=0.0, beta2=1.0), config=IterationConfig(n_ch=1),
            arrays=PlanArrays(s, s.restrictions, FrequencyPlan({1: Assignment(3, 2, 1, active=False)})),
        )
        assert iterative.iterate_once(state, np.random.default_rng(0)).trace.records[-1].beams_changed == 1
        assert state.plan[1] == Assignment.inactive()

    def test_plan_is_read_from_the_arrays(self):
        """state.plan is the PlanArrays' plan after every iteration and
        cannot be replaced from outside."""
        s = scenario_with([Beam(id=i) for i in (1, 2, 3)], intra=[(1, 2)], inter=[(2, 3)])
        state = iterative.IterationState(
            scenario=s, weights=ObjectiveWeights(), config=IterationConfig(n_ch=2),
            arrays=PlanArrays(s, s.restrictions),
        )
        iterative.iterate_once(state, np.random.default_rng(0))
        assert state.plan.assignments == state.arrays.plan().assignments
        assert any(a.active for a in state.plan.assignments.values())
        with pytest.raises(AttributeError):
            state.plan = all_inactive(s)


class TestOptimize:
    def test_golden_large_case(self, tmp_path):
        """The acceptance large_case after 50 iterations at seed 0: pins the
        search semantics (ranking, candidate order, node counting) to one
        plan, byte for byte."""
        scenario, restrictions, warm = large_case()
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
        last. Flat weights make equal scores across different blocks common.
        The reference draws ids where iterate_once draws positions, so the
        non-contiguous ids show that both pick the same beams."""
        rng = np.random.default_rng(700 + seed)
        for ids in (range(1, 10), (-5, 3, 10, 42, 10_000, 10_001, 20_000, 31_337, 99_999)):
            grid = FrequencyGrid(n_bw=int(rng.integers(3, 7)), n_fr=2, n_p=int(rng.integers(1, 3)))
            beams = tuple(
                Beam(id=i, allowed_rows=(1, grid.n_rows - 1) if n % 3 == 2 else None)
                for n, i in enumerate(ids)
            )
            pairs = [(i, j) for i in ids for j in ids if i < j]
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
                scenario=s, weights=w, config=config,
                arrays=PlanArrays(s, s.restrictions, sanitize_warm_start(FrequencyPlan(start), s, s.restrictions)),
            )
            rng_run, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                picked = sorted(int(x) for x in rng_ref.choice(sorted(s.beam_ids()), size=6, replace=False))
                expected = ref_reoptimize(
                    s, s.restrictions, w, state.plan, picked, config.top_per_bandwidth, node_budget
                )
                state = iterative.iterate_once(state, rng_run)
                assert state.plan.assignments == expected.assignments

    def test_unordered_gapped_ids_iterate_alike_from_either_start(self):
        """Beams listed out of id order, with gaps between the ids: the
        first fit places them as the scalar reference does, and optimize
        from no start gives the plan, start and records (wall clock aside)
        of optimize from the greedy start passed in."""
        rng = np.random.default_rng(23)
        ids = (42, -5, 10_000, 3, 7)
        pairs = [(i, j) for i in ids for j in ids if i < j]
        left_out = improved = 0
        for _ in range(12):
            grid = FrequencyGrid(n_bw=int(rng.integers(2, 6)), n_fr=int(rng.integers(1, 3)), n_p=int(rng.integers(1, 3)))
            beams = tuple(
                Beam(id=i, demand_bps=float(rng.choice([1e6, 5e6, 2e7])), min_slots=int(rng.integers(1, 3)))
                for i in ids
            )
            s = Scenario(grid=grid, beams=beams, geometry=GEOM, restrictions=RestrictionSets.of(
                intra=[p for p in pairs if rng.random() < 0.6], inter=[p for p in pairs if rng.random() < 0.3],
            ))
            warm = greedy_warm_start(s, s.restrictions)
            assert warm.assignments == ref_greedy_warm_start(s, s.restrictions).assignments
            w = ObjectiveWeights(beta1=1.0, beta2=0.1, beta3=0.01)
            config = IterationConfig(n_ch=3, seed=int(rng.integers(0, 100)), convergence_window=4)
            own, own_trace = optimize(s, s.restrictions, w, config=config)
            given, given_trace = optimize(s, s.restrictions, w, warm_start=warm, config=config)
            assert own.assignments == given.assignments
            assert own_trace.start.assignments == given_trace.start.assignments == warm.assignments
            records = [[dataclasses.replace(r, wall_ms=0.0) for r in t.records] for t in (own_trace, given_trace)]
            assert records[0] == records[1]
            left_out += any(not a.active for a in warm.assignments.values())
            improved += own.assignments != warm.assignments
        assert left_out and improved

    @pytest.mark.parametrize("kind", ["intra", "inter"])
    @pytest.mark.parametrize("pair", [(1, 2), (2, 1)])
    def test_pair_stored_in_either_order(self, kind, pair):
        """Two beams, one row, two slots: a pair given as (j, i) restricts
        the optimizer and the brute-force oracle like one given as (i, j)."""
        s = Scenario(
            grid=FrequencyGrid(n_bw=2, n_fr=1, n_p=1), beams=(Beam(id=1), Beam(id=2)),
            geometry=GEOM, restrictions=RestrictionSets(**{kind: frozenset({pair})}),
        )
        plan, trace = optimize(s, s.restrictions, ObjectiveWeights(),
                               config=IterationConfig(n_ch=2, convergence_window=3))
        assert validate_plan(plan, s.grid, s.restrictions, s.beams) == []
        assert trace.objectives()[-1] == 2.0
        oracle = brute_force_best_plan(s, s.restrictions, ObjectiveWeights())
        assert validate_plan(oracle.plan, s.grid, s.restrictions, s.beams) == []
        assert oracle.objective == 2.0

    def test_one_uncapped_iteration_reaches_the_power_aware_oracle(self):
        """Acceptance 03 with power: where the greedy start places every
        beam, one iteration over every beam with every candidate and no node
        cap reaches the brute-force optimum, whose scores subtract beta4
        times the power table's dBW."""
        rng = np.random.default_rng(31)
        compared = moved_by_power = 0
        for _ in range(60):
            s, _ = random_instance(rng, max_beams=4, max_bw=4)
            s = dataclasses.replace(s, grid=dataclasses.replace(s.grid, slot_bandwidth_hz=20e6))
            tables = power_tables_for(s.beams, s.grid, LinkBudget())
            w = ObjectiveWeights(
                beta1=1.0, beta2=float(rng.uniform(0, 0.05)), beta3=float(rng.uniform(0, 0.05)),
                beta4=float(rng.uniform(0.05, 0.5)),
            )
            warm = greedy_warm_start(s, s.restrictions)
            if any(not warm[b.id].active for b in s.beams):
                continue  # keep the candidate spaces identical: every beam re-placed
            oracle = brute_force_best_plan(s, s.restrictions, w, power_table=tables)
            config = IterationConfig(
                n_ch=len(s.beams), top_per_bandwidth=None, convergence_window=1,
                max_iterations=1, node_budget=0,
            )
            plan, _ = optimize(s, s.restrictions, w, config=config, power_table=tables)
            assert objective_value(plan, w, tables) == pytest.approx(oracle.objective, abs=1e-6)
            without = brute_force_best_plan(s, s.restrictions, dataclasses.replace(w, beta4=0.0))
            moved_by_power += without.plan.assignments != oracle.plan.assignments
            compared += 1
        assert compared >= 20 and moved_by_power > 0

    def test_validates_only_a_given_start(self, monkeypatch):
        """The greedy start is valid by construction; only a start from the
        caller goes through sanitize_warm_start's validate_plan."""
        s = self.small_scenario()
        calls = []
        real = iterative.validate_plan
        monkeypatch.setattr(
            iterative, "validate_plan", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        config = IterationConfig(n_ch=2, seed=3, convergence_window=4)
        own, _ = optimize(s, s.restrictions, ObjectiveWeights(), config=config)
        assert len(calls) == 0
        given, _ = optimize(
            s, s.restrictions, ObjectiveWeights(),
            warm_start=greedy_warm_start(s, s.restrictions), config=config,
        )
        assert len(calls) == 1
        assert own.assignments == given.assignments

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
        assert all(rec.wall_ms > 0 for rec in trace.records)  # timings stay in memory

"""Branch-and-bound, solution I/O, brute-force oracle and option selection."""

import gc

import numpy as np
import pytest

from freqplan import (
    Beam,
    ConstellationGeometry,
    FrequencyGrid,
    InstanceTooLargeError,
    MilpModel,
    ObjectiveWeights,
    RestrictionSets,
    Scenario,
    SolutionImportError,
    SolveLimits,
    brute_force_best_plan,
    build_full_model,
    check_solution,
    import_solution,
    solve_exact,
    write_solution,
)
from freqplan.errors import DomainError, UnsupportedModelError
from freqplan.iterative import OptionGroup, PairConflicts
from freqplan.solver import solve_option_selection

from util import (
    random_instance,
    ref_plan_is_valid,
    ref_solve_exact,
    ref_solve_option_selection,
    solve_dense_selection,
)


def knapsack_model():
    """max 3x + 4y + 2z  s.t.  2x + 3y + z <= 4, binaries.

    Hand enumeration: optimum picks y and z for value 6.
    """
    m = MilpModel()
    for name in ("x", "y", "z"):
        m.add_variable(name, 0, 1, "binary")
    m.add_constraint("cap", [(2.0, "x"), (3.0, "y"), (1.0, "z")], "<=", 4.0)
    m.set_objective([(3.0, "x"), (4.0, "y"), (2.0, "z")])
    return m


class TestSolveExact:
    def test_hand_checked_knapsack(self):
        sol = solve_exact(knapsack_model())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(6.0)
        assert sol.values == {"x": 0.0, "y": 1.0, "z": 1.0}

    def test_integer_bounds_and_equalities(self):
        # max x + y  s.t.  x + y = 5, x - y >= 1, 0 <= x,y <= 4
        m = MilpModel()
        m.add_variable("x", 0, 4, "integer")
        m.add_variable("y", 0, 4, "integer")
        m.add_constraint("sum", [(1.0, "x"), (1.0, "y")], "=", 5.0)
        m.add_constraint("gap", [(1.0, "x"), (-1.0, "y")], ">=", 1.0)
        m.set_objective([(1.0, "x"), (1.0, "y")])
        sol = solve_exact(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.0)
        assert sol.values["x"] - sol.values["y"] >= 1.0

    def test_detects_infeasibility(self):
        m = MilpModel()
        m.add_variable("x", 0, 3, "integer")
        m.add_constraint("lo", [(1.0, "x")], ">=", 2.0)
        m.add_constraint("hi", [(1.0, "x")], "<=", 1.0)
        m.set_objective([(1.0, "x")])
        assert solve_exact(m).status == "infeasible"

    def test_node_limit_reports_limit(self):
        s, w = random_instance(np.random.default_rng(0))
        model = build_full_model(s, s.restrictions, w)
        sol = solve_exact(model, SolveLimits(max_nodes=1))
        assert sol.status in ("limit-reached", "feasible")
        assert sol.stats.nodes <= 1

    def test_negative_node_limit_is_a_domain_error(self):
        # not a 0-node limit-reached answer with an infinite bound
        s, w = random_instance(np.random.default_rng(0))
        model = build_full_model(s, s.restrictions, w)
        with pytest.raises(DomainError, match="max_nodes"):
            solve_exact(model, SolveLimits(max_nodes=-1))

    def test_zero_coefficient_adds_nothing(self):
        # max x + y  s.t.  x + 0y <= 2: the zero term neither bounds y nor
        # divides by zero when the row tightens x
        m = MilpModel()
        m.add_variable("x", 0, 3, "integer")
        m.add_variable("y", 0, 3, "integer")
        m.add_constraint("cap", [(1.0, "x"), (0.0, "y")], "<=", 2.0)
        m.add_constraint("low", [(0.0, "x"), (1.0, "y")], ">=", 1.0)
        m.set_objective([(1.0, "x"), (1.0, "y")])
        sol = solve_exact(m)
        assert (sol.status, sol.values, sol.objective) == ("optimal", {"x": 2.0, "y": 3.0}, 5.0)

    def test_rejects_continuous_variables(self):
        m = MilpModel()
        m.add_variable("x", 0.0, 1.0, "continuous")
        m.set_objective([(1.0, "x")])
        with pytest.raises(UnsupportedModelError):
            solve_exact(m)

    def test_deterministic(self):
        s, w = random_instance(np.random.default_rng(5))
        model = build_full_model(s, s.restrictions, w)
        a = solve_exact(model)
        b = solve_exact(model)
        assert a.status == b.status
        assert a.values == b.values
        assert a.objective == b.objective

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(1000 + seed)
        s, w = random_instance(rng)
        model = build_full_model(s, s.restrictions, w)
        sol = solve_exact(model)
        oracle = brute_force_best_plan(s, s.restrictions, w)
        if oracle.status == "infeasible":
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(oracle.objective, abs=1e-9)


def _fields(sol):
    return sol.status, sol.values, sol.objective, sol.bound, sol.stats.nodes


def _general_model(rng):
    """A small general-integer program of the kinds full models never
    produce: negative ranges, ">=" and "=" rows with negative coefficients,
    a fractional, integral or empty objective, and some fractional
    right-hand sides. Most right-hand sides hold at a random point of the
    box, so most models are feasible."""
    m = MilpModel()
    names = [f"x{k}" for k in range(int(rng.integers(2, 8)))]
    point = {}
    for name in names:
        lo = int(rng.integers(-4, 3))
        hi = lo + int(rng.integers(0, 9))
        m.add_variable(name, lo, hi, "integer")
        point[name] = int(rng.integers(lo, hi + 1))
    for r in range(int(rng.integers(1, 6))):
        picked = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
        terms = [(float(rng.choice([-3, -2, -1, 1, 2, 3])), str(v)) for v in picked]
        sense = str(rng.choice(["<=", ">=", "="]))
        at_point = sum(c * point[v] for c, v in terms)
        slack = float(rng.integers(0, 4))
        rhs = {"<=": at_point + slack, ">=": at_point - slack, "=": at_point}[sense]
        if rng.random() < 0.2:
            rhs = float(rng.integers(-6, 7))
        if rng.random() < 0.25:
            rhs += float(rng.choice([-0.5, -0.3, 0.3, 0.5]))
        m.add_constraint(f"c{r}", terms, sense, rhs)
    kind = rng.integers(3)
    if kind == 0:
        m.set_objective([(float(rng.uniform(-2, 2)), v) for v in names])
    elif kind == 1:
        m.set_objective([(float(rng.integers(-3, 4)), v) for v in names])
    return m


class TestIncrementalPropagation:
    """solve_exact re-propagates only the rows a bound change can tighten
    (a rising lb wakes the rows where the variable's coefficient is
    positive, a falling ub those where it is negative) and skips a row
    whose slack covers every term's domain; the full-queue reference
    re-propagates every row at every node. Both must reach the same
    fixpoints, so every result field and the node count agree, also where a
    node cap stops the search."""

    @pytest.mark.parametrize("chunk", range(8))
    def test_full_models_match_reference(self, chunk):
        rng = np.random.default_rng(6000 + chunk)
        for k in range(40):
            s, w = random_instance(rng)
            model = build_full_model(s, s.restrictions, w, activation=bool(k % 2))
            caps = (0, 1, 7, 30) if k % 10 == 0 else (1, 7, 30)
            for cap in caps:
                got = solve_exact(model, SolveLimits(max_nodes=cap))
                assert _fields(got) == _fields(ref_solve_exact(model, cap)), (k, cap)

    @pytest.mark.parametrize("seed", range(4))
    def test_general_models_match_reference(self, seed):
        rng = np.random.default_rng(7000 + seed)
        for k in range(50):
            model = _general_model(rng)
            for cap in (0, 1, 2, 5, 30):
                got = solve_exact(model, SolveLimits(max_nodes=cap))
                assert _fields(got) == _fields(ref_solve_exact(model, cap)), (k, cap)

    def test_fractional_objective_with_negative_rows(self):
        # max 0.5x + 1.25y - 0.75z  s.t.  2x - 3y >= -10, x + y - z = 4,
        # -x + 2z <= 3, x in [-3, 5], y in [0, 7], z in [-2, 2]: the
        # objective step is OPT_TOL and the cut row has fractional terms
        m = MilpModel()
        m.add_variable("x", -3, 5, "integer")
        m.add_variable("y", 0, 7, "integer")
        m.add_variable("z", -2, 2, "integer")
        m.add_constraint("ge", [(2.0, "x"), (-3.0, "y")], ">=", -10.0)
        m.add_constraint("eq", [(1.0, "x"), (1.0, "y"), (-1.0, "z")], "=", 4.0)
        m.add_constraint("le", [(-1.0, "x"), (2.0, "z")], "<=", 3.0)
        m.set_objective([(0.5, "x"), (1.25, "y"), (-0.75, "z")])
        best = max(
            0.5 * x + 1.25 * y - 0.75 * z
            for x in range(-3, 6)
            for y in range(8)
            for z in range(-2, 3)
            if 2 * x - 3 * y >= -10 and x + y - z == 4 and -x + 2 * z <= 3
        )
        sol = solve_exact(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(best)
        assert check_solution(m, sol.values) == []
        for cap in (0, 1, 2, 3, 5, 8):
            got = solve_exact(m, SolveLimits(max_nodes=cap))
            assert _fields(got) == _fields(ref_solve_exact(m, cap))

    def test_empty_objective_has_no_cut(self):
        # no objective: the first feasible leaf is optimal at 0
        m = MilpModel()
        m.add_variable("x", 0, 6, "integer")
        m.add_variable("y", -2, 4, "integer")
        m.add_constraint("ge", [(-1.0, "x"), (2.0, "y")], ">=", 1.0)
        m.add_constraint("eq", [(1.0, "x"), (1.0, "y")], "=", 5.0)
        sol = solve_exact(m)
        assert sol.status == "optimal"
        assert sol.objective == 0.0
        assert check_solution(m, sol.values) == []
        for cap in (0, 1, 2, 4):
            got = solve_exact(m, SolveLimits(max_nodes=cap))
            assert _fields(got) == _fields(ref_solve_exact(m, cap))

    def test_empty_declared_domain_is_infeasible_at_the_root(self):
        m = MilpModel()
        m.add_variable("x", 0, 3, "integer")
        m.add_variable("y", 2, 1, "integer")
        m.add_constraint("le", [(1.0, "x"), (1.0, "y")], "<=", 4.0)
        m.set_objective([(1.0, "x"), (1.0, "y")])
        sol = solve_exact(m)
        assert (sol.status, sol.stats.nodes) == ("infeasible", 1)
        assert _fields(sol) == _fields(ref_solve_exact(m))

    @pytest.mark.parametrize("cap", [1, 7, 30])
    def test_capped_results_bracket_the_oracle(self, cap):
        # a capped search never claims more than the optimum, and its bound
        # never drops below it
        rng = np.random.default_rng(2024)
        for k in range(150):
            s, w = random_instance(rng)
            sol = solve_exact(build_full_model(s, s.restrictions, w), SolveLimits(max_nodes=cap))
            if sol.status not in ("feasible", "limit-reached"):
                continue
            oracle = brute_force_best_plan(s, s.restrictions, w)
            if sol.status == "feasible":
                assert oracle.status == "optimal", k
                assert sol.objective <= oracle.objective + 1e-9, k
            if oracle.status == "optimal":
                assert sol.bound >= oracle.objective - 1e-9, k


class TestSolutionIo:
    def test_write_import_round_trip(self, tmp_path):
        m = knapsack_model()
        sol = solve_exact(m)
        path = tmp_path / "point.sol"
        write_solution(sol, path)
        back = import_solution(path, m)
        assert back.status == "feasible"
        assert back.values == sol.values
        assert back.objective == pytest.approx(sol.objective)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "point.sol"
        path.write_text("# comment\n\nx 1  # inline\ny 0\nz 1\n")
        back = import_solution(path, knapsack_model())
        assert back.values == {"x": 1.0, "y": 0.0, "z": 1.0}

    def test_infeasible_point_reports_constraints(self, tmp_path):
        path = tmp_path / "point.sol"
        path.write_text("x 1\ny 1\nz 1\n")
        back = import_solution(path, knapsack_model())
        assert back.status == "infeasible"
        assert back.violated == ["cap"]

    @pytest.mark.parametrize(
        "content",
        ["w 1\nx 0\ny 0\nz 0\n", "x 0\ny 0\n", "x zero\ny 0\nz 0\n", "x\ny 0\nz 0\n"],
    )
    def test_malformed_files_rejected(self, tmp_path, content):
        path = tmp_path / "point.sol"
        path.write_text(content)
        with pytest.raises(SolutionImportError):
            import_solution(path, knapsack_model())

    def test_check_solution_flags(self):
        m = knapsack_model()
        assert check_solution(m, {"x": 2.0, "y": 0.0, "z": 0.0}) == ["bounds:x"]
        assert check_solution(m, {"x": 0.5, "y": 0.0, "z": 0.0}) == ["integrality:x"]
        assert check_solution(m, {"x": 1.0, "y": 1.0, "z": 0.0}) == ["cap"]
        assert check_solution(m, {"x": 1.0, "y": 0.0, "z": 1.0}) == []


class TestBruteForceOracle:
    def test_guard_rejects_large_instances(self):
        grid = FrequencyGrid(n_bw=40, n_fr=8, n_p=2)
        beams = tuple(Beam(id=i) for i in range(1, 6))
        s = Scenario(
            grid=grid,
            beams=beams,
            geometry=ConstellationGeometry(n_s=1, altitude_km=8062.0),
            restrictions=RestrictionSets(),
        )
        with pytest.raises(InstanceTooLargeError):
            brute_force_best_plan(s, s.restrictions, ObjectiveWeights())

    def test_returns_valid_plan(self):
        s, w = random_instance(np.random.default_rng(77))
        out = brute_force_best_plan(s, s.restrictions, w)
        if out.status == "optimal":
            assert ref_plan_is_valid(out.plan, s.grid, s.restrictions, s.beams)

    def test_allow_inactive_never_worse(self):
        s, w = random_instance(np.random.default_rng(88))
        forced = brute_force_best_plan(s, s.restrictions, w)
        relaxed = brute_force_best_plan(s, s.restrictions, w, allow_inactive=True)
        assert relaxed.status == "optimal"
        if forced.status == "optimal":
            assert relaxed.objective >= forced.objective - 1e-9


class TestOptionSelection:
    def test_hand_checked_selection(self):
        # two groups, option 0/0 conflicts; best is 5 + 3 = 8 via (1, 0)
        scores = [[4.0, 5.0], [3.0, 1.0]]
        conflict = {(0, 1): np.array([[True, False], [False, False]])}
        picks, total = solve_dense_selection(scores, [False, False], conflict)
        assert picks == [1, 0]
        assert total == pytest.approx(8.0)

    def test_search_leaves_no_reference_cycle(self):
        # what a call builds (conflict rows, option groups, bitsets) is freed
        # on return, not at the next cyclic collection
        scores = [[4.0, 5.0], [3.0, 1.0], [2.0]]
        conflict = {(0, 1): np.array([[True, False], [False, False]])}
        gc.collect()
        gc.disable()
        try:
            solve_dense_selection(scores, [False, False, True], conflict)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_mandatory_blocked_group_is_infeasible(self):
        scores = [[1.0], [1.0]]
        conflict = {(0, 1): np.array([[True]])}
        with pytest.raises(UnsupportedModelError):
            solve_dense_selection(scores, [False, False], conflict)

    def test_allow_none_resolves_total_conflict(self):
        scores = [[2.0], [1.0]]
        conflict = {(0, 1): np.array([[True]])}
        picks, total = solve_dense_selection(scores, [False, True], conflict)
        assert picks == [0, None]
        assert total == pytest.approx(2.0)

    def test_negative_node_budget_is_a_domain_error(self):
        # not "no feasible point" for a trivially feasible problem
        with pytest.raises(DomainError, match="node_budget"):
            solve_option_selection([[1.0]], [True], {}, node_budget=-1)

    def test_negative_scores_prefer_none_when_allowed(self):
        picks, total = solve_option_selection([[-1.0]], [True], {})
        assert picks == [None]
        assert total == pytest.approx(0.0)
        picks, total = solve_option_selection([[-1.0]], [False], {})
        assert picks == [0]
        assert total == pytest.approx(-1.0)

    def test_kernel_conflicts_match_matrix(self):
        # the hand-checked case in rank order: group 0 scores 5 (row 1,
        # slots 1-2) and 4 (row 2, slots 1-2); group 1 scores 3 (row 2,
        # slots 2-3) and 1 (row 1, slots 3-4). As an intra pair only the
        # row-2 options overlap, so the best is 5 + 3 = 8 via (0, 0).
        grid = FrequencyGrid(n_bw=4, n_fr=1, n_p=2)
        scores = [[5.0, 4.0], [3.0, 1.0]]
        groups = [
            OptionGroup(np.array([1, 1]), np.array([1, 2]), np.array([2, 2]), grid),
            OptionGroup(np.array([2, 3]), np.array([2, 1]), np.array([2, 2]), grid),
        ]
        kernel = PairConflicts(groups[0], groups[1], by_pol=False)
        mat = np.array([[False, False], [True, False]])
        assert [kernel.rows[u] for u in range(2)] == [0b00, 0b01]
        assert [kernel.cols[v] for v in range(2)] == [0b10, 0b00]
        assert kernel.size == mat.size
        by_matrix = solve_dense_selection(scores, [False, False], {(0, 1): mat})
        by_kernel = solve_option_selection(scores, [False, False], {(0, 1): kernel})
        assert by_matrix == by_kernel == ([0, 0], 8.0)

    def test_kernel_conflicts_need_rank_order(self):
        grid = FrequencyGrid(n_bw=4, n_fr=1, n_p=2)
        group = OptionGroup(np.array([1, 1]), np.array([1, 2]), np.array([2, 2]), grid)
        kernel = PairConflicts(group, group, by_pol=False)
        with pytest.raises(ValueError, match="^group 0 is not in rank order$"):
            solve_option_selection([[4.0, 5.0], [3.0, 1.0]], [False, False], {(0, 1): kernel})

    def test_rank_order_error_names_the_unranked_group(self):
        """Every group's scores must be non-increasing, whether or not a
        conflict object names it; ties are in order."""
        grid = FrequencyGrid(n_bw=4, n_fr=1, n_p=2)
        group = OptionGroup(np.array([1, 1]), np.array([1, 2]), np.array([2, 2]), grid)
        kernel = PairConflicts(group, group, by_pol=False)
        scores = [[5.0, 4.0], [3.0, 2.0], [1.0, 3.0]]
        pairs = {(0, 1): kernel, (0, 2): kernel, (1, 2): kernel}
        with pytest.raises(ValueError, match="^group 2 is not in rank order$"):
            solve_option_selection(scores, [True] * 3, pairs)
        with pytest.raises(ValueError, match="^group 1 is not in rank order$"):
            solve_option_selection([[5.0, 4.0], [1.0, 2.0]], [True, True], {})
        assert solve_option_selection(scores[:2], [True] * 2, {(0, 1): kernel})[1] == 7.0
        assert solve_option_selection([[2.0, 2.0], []], [False, True], {}) == ([0, None], 2.0)

    def test_budget_truncation_returns_initial_or_better(self):
        rng = np.random.default_rng(3)
        n, k = 6, 8
        scores = [list(rng.uniform(0, 10, size=k)) for _ in range(n)]
        conflict = {
            (i, j): rng.random((k, k)) < 0.5
            for i in range(n)
            for j in range(i + 1, n)
        }
        # fall back to an all-None start; every group may select nothing
        initial = [None] * n
        exact = solve_dense_selection(scores, [True] * n, conflict)
        truncated = solve_dense_selection(
            scores, [True] * n, conflict, initial=initial, node_budget=3
        )
        assert truncated[1] <= exact[1] + 1e-9
        assert truncated[1] >= 0.0  # never worse than the seeded start

    @pytest.mark.parametrize("seed", range(5))
    def test_exhaustive_cross_check(self, seed):
        import itertools

        rng = np.random.default_rng(200 + seed)
        n = 3
        sizes = [int(rng.integers(1, 4)) for _ in range(n)]
        scores = [list(rng.uniform(-2, 5, size=sizes[g])) for g in range(n)]
        allow = [bool(rng.random() < 0.5) for _ in range(n)]
        conflict = {
            (i, j): rng.random((sizes[i], sizes[j])) < 0.4
            for i in range(n)
            for j in range(i + 1, n)
        }
        best = float("-inf")
        domains = [
            (list(range(sizes[g])) + [None]) if allow[g] else list(range(sizes[g]))
            for g in range(n)
        ]
        feasible = False
        for combo in itertools.product(*domains):
            ok = True
            for (i, j), mat in conflict.items():
                if combo[i] is not None and combo[j] is not None and mat[combo[i], combo[j]]:
                    ok = False
                    break
            if ok:
                feasible = True
                best = max(
                    best, sum(scores[g][combo[g]] for g in range(n) if combo[g] is not None)
                )
        if not feasible:
            with pytest.raises(UnsupportedModelError):
                solve_dense_selection(scores, allow, conflict)
        else:
            _, total = solve_dense_selection(scores, allow, conflict)
            assert total == pytest.approx(best, abs=1e-9)


def _random_selection(rng, n_groups, max_options, tie_levels):
    """Scores drawn from few levels (so ties are common), unsorted, with
    mixed allow_none and random conflict matrices over random pairs."""
    sizes = [int(rng.integers(0, max_options + 1)) for _ in range(n_groups)]
    levels = rng.uniform(-3, 10, size=tie_levels)
    scores = [list(rng.choice(levels, size=k)) for k in sizes]
    allow = [bool(rng.random() < 0.5) or sizes[g] == 0 for g in range(n_groups)]
    density = rng.uniform(0.1, 0.7)
    conflict = {
        (i, j): rng.random((sizes[i], sizes[j])) < density
        for i in range(n_groups)
        for j in range(i + 1, n_groups)
        if rng.random() < 0.6
    }
    return scores, allow, conflict


def _feasible_initial(rng, scores, allow, conflict):
    """A random selection satisfying every conflict, or None if the greedy
    draw dead-ends on a mandatory group."""
    pick = []
    for g, opts in enumerate(scores):
        free = [
            u for u in range(len(opts))
            if not any(
                pick[h] is not None and conflict[(h, g)][pick[h], u]
                for h in range(g) if (h, g) in conflict
            )
        ]
        if allow[g] and (not free or rng.random() < 0.3):
            pick.append(None)
        elif free:
            pick.append(int(rng.choice(free)))
        else:
            return None
    return pick


@pytest.mark.parametrize("node_budget", [0, 1, 3, 50])
@pytest.mark.parametrize("seed", range(12))
def test_bitset_search_matches_reference(seed, node_budget):
    """Picks and totals equal the numpy-mask reference search, including
    which options a node-budget truncation settles on, when unsorted scores
    and dense matrices reach the search through the rank-order adapter."""
    rng = np.random.default_rng(4000 + seed)
    for _ in range(8):
        scores, allow, conflict = _random_selection(
            rng, int(rng.integers(1, 7)), 9, int(rng.integers(2, 6))
        )
        initial = _feasible_initial(rng, scores, allow, conflict) if rng.random() < 0.6 else None
        kwargs = dict(initial=initial, node_budget=node_budget)
        try:
            expected = ref_solve_option_selection(scores, allow, conflict, **kwargs)
        except UnsupportedModelError:
            with pytest.raises(UnsupportedModelError):
                solve_dense_selection(scores, allow, conflict, **kwargs)
            continue
        assert solve_dense_selection(scores, allow, conflict, **kwargs) == expected

"""Exact solving at desk scale.

Three routes live here:

* ``solve_exact`` -- a deterministic pure-integer branch-and-bound over the
  model IR, with interval constraint propagation and objective-bound
  pruning. Not a general MILP solver; every variable must be integral with
  finite bounds.
* ``brute_force_best_plan`` -- an independent plan enumerator used as the
  testing oracle. It never touches the model IR.
* ``solve_option_selection`` -- an exact depth-first search over per-beam
  option lists (pick at most one per beam, pairwise conflicts), used by
  the iterative optimizer's subproblems. It takes one input form: each
  beam's options in score-rank order and one conflict object of int
  bitsets per restricted pair, as ``iterative._subproblem`` builds them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InstanceTooLargeError,
    SolutionImportError,
    UnsupportedModelError,
)
from .milp import BINARY, EQ, GE, INTEGER, LE, MilpModel
from .model import (
    Assignment,
    FrequencyPlan,
    ObjectiveWeights,
    RestrictionSets,
    decompose_reuse,
)
from .scenario import Scenario

FEAS_TOL = 1e-6
OPT_TOL = 1e-9

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
LIMIT_REACHED = "limit-reached"


@dataclass(frozen=True)
class SolveLimits:
    """Search limits; zero means unlimited."""

    max_nodes: int = 0


@dataclass
class SolveStats:
    nodes: int = 0
    wall_seconds: float = 0.0


@dataclass
class Solution:
    status: str
    values: dict[str, float] = field(default_factory=dict)
    objective: float = float("-inf")
    bound: float = float("inf")
    stats: SolveStats = field(default_factory=SolveStats)


def _objective_coefs(model: MilpModel, n: int) -> list[float]:
    coefs = [0.0] * n
    for coef, name in model.objective:
        coefs[model.variable_index(name)] += coef
    return coefs


def solve_exact(model: MilpModel, limits: SolveLimits = SolveLimits()) -> Solution:
    """Depth-first branch-and-bound over a pure-integer model.

    Branches on the first unfixed variable in declaration order, splitting
    the domain at its midpoint; the half favored by the variable's
    objective coefficient is explored first. Output is deterministic for a
    fixed model.

    Every constraint is compiled once into "<=" rows (``>=`` negated, ``=``
    as both), plus one row for the incumbent cut ``objective >= best +
    step``. Each node tightens integer bounds over these rows to a fixpoint
    with a lowest-row-first worklist. The root seeds every row; a child
    starts from its parent's fixpoint and seeds only the rows of the
    branched variable, plus the cut row when the incumbent has improved
    since the parent was propagated. Row tightening is monotone, so the
    fixpoint does not depend on the order rows are processed in.
    """
    n = len(model.variables)
    for var in model.variables:
        if var.integrality not in (INTEGER, BINARY):
            raise UnsupportedModelError(f"variable {var.name} is not integral")

    lb0 = [int(math.ceil(v.lower - FEAS_TOL)) for v in model.variables]
    ub0 = [int(math.floor(v.upper + FEAS_TOL)) for v in model.variables]

    # rows[r] holds the (coef, var) terms of sum(terms) <= rhs[r]
    rows: list[tuple[tuple[float, int], ...]] = []
    rhs: list[float] = []
    for con in model.constraints:
        terms = tuple((c, model.variable_index(v)) for c, v in con.terms)
        if con.sense in (LE, EQ):
            rows.append(terms)
            rhs.append(con.rhs)
        if con.sense in (GE, EQ):
            rows.append(tuple((-c, v) for c, v in terms))
            rhs.append(-con.rhs)
    obj = _objective_coefs(model, n)
    obj_terms = tuple((c, v) for v, c in enumerate(obj) if c != 0.0)
    integral_obj = all(float(c).is_integer() for c, _ in obj_terms)
    improve_step = 1.0 if integral_obj else OPT_TOL
    var_rows: list[list[int]] = [[] for _ in range(n)]
    for r, terms in enumerate(rows):
        for _, v in terms:
            var_rows[v].append(r)
    # the incumbent cut -objective <= -(best + step) is the last row; it
    # stays empty, a no-op, until the first incumbent
    cut = None
    cut_terms = tuple((-c, v) for c, v in obj_terms)
    if obj_terms:
        cut = len(rows)
        rows.append(())
        rhs.append(0.0)
        for _, v in obj_terms:
            var_rows[v].append(cut)

    start = time.perf_counter()
    stats = SolveStats()
    best_obj = float("-inf")
    best_values: list[int] | None = None
    frontier_bound = float("-inf")
    hit_limit = False
    queue: list[int] = []
    queued = [False] * len(rows)

    def wake(v: int) -> None:
        for r in var_rows[v]:
            if not queued[r]:
                queued[r] = True
                heappush(queue, r)

    def propagate(lb, ub) -> bool:
        """Tighten bounds over the queued rows and the rows they wake, to a
        fixpoint. False = infeasible."""
        while queue:
            r = heappop(queue)
            queued[r] = False
            terms, limit = rows[r], rhs[r]
            minact = 0.0
            for c, v in terms:
                minact += c * (lb[v] if c > 0 else ub[v])
            if minact > limit + FEAS_TOL:
                return False
            for c, v in terms:
                if c > 0:
                    hi = math.floor((limit - minact + c * lb[v]) / c + FEAS_TOL)
                    if hi < ub[v]:
                        ub[v] = hi
                        if lb[v] > hi:
                            return False
                        wake(v)
                else:
                    lo = math.ceil((limit - minact + c * ub[v]) / c - FEAS_TOL)
                    if lo > lb[v]:
                        lb[v] = lo
                        if lo > ub[v]:
                            return False
                        wake(v)
        return True

    def obj_upper(lb, ub) -> float:
        total = 0.0
        for c, v in obj_terms:
            total += c * (ub[v] if c > 0 else lb[v])
        return total

    # (lb, ub, parent bound, branched variable or None at the root, the
    # incumbent the parent was propagated against)
    stack: list[tuple[list[int], list[int], float, int | None, float]] = [
        (lb0, ub0, float("inf"), None, best_obj)
    ]

    while stack:
        if limits.max_nodes and stats.nodes >= limits.max_nodes:
            hit_limit = True
            break
        lb, ub, parent_bound, branched, seen_obj = stack.pop()
        if parent_bound <= best_obj and best_values is not None:
            frontier_bound = max(frontier_bound, parent_bound)
            continue
        stats.nodes += 1
        if branched is None:
            if any(lb[v] > ub[v] for v in range(n)):
                continue
            queue[:] = range(len(rows))
            queued[:] = [True] * len(rows)
        else:
            wake(branched)
            if cut is not None and best_obj != seen_obj and not queued[cut]:
                queued[cut] = True
                heappush(queue, cut)
        if not propagate(lb, ub):
            for r in queue:
                queued[r] = False
            queue.clear()
            continue
        bound = obj_upper(lb, ub)
        if best_values is not None and bound <= best_obj:
            frontier_bound = max(frontier_bound, bound)
            continue
        branch_var = next((v for v in range(n) if lb[v] < ub[v]), None)
        if branch_var is None:
            value = sum(c * lb[v] for c, v in obj_terms)
            if value > best_obj + OPT_TOL:
                best_obj = value
                best_values = lb.copy()
                if cut is not None:
                    rows[cut] = cut_terms
                    rhs[cut] = -(best_obj + improve_step)
            continue
        mid = (lb[branch_var] + ub[branch_var]) // 2
        low_lb, low_ub = lb.copy(), ub.copy()
        low_ub[branch_var] = mid
        high_lb, high_ub = lb.copy(), ub.copy()
        high_lb[branch_var] = mid + 1
        low = (low_lb, low_ub, bound, branch_var, best_obj)
        high = (high_lb, high_ub, bound, branch_var, best_obj)
        if obj[branch_var] > 0:
            stack.append(low)
            stack.append(high)  # popped first: objective-improving half
        else:
            stack.append(high)
            stack.append(low)

    stats.wall_seconds = time.perf_counter() - start
    if hit_limit:
        frontier_bound = max(
            [frontier_bound] + [node[2] for node in stack] + [best_obj]
        )
        if best_values is None:
            return Solution(LIMIT_REACHED, {}, float("-inf"), frontier_bound, stats)
        values = {v.name: float(best_values[i]) for i, v in enumerate(model.variables)}
        return Solution(FEASIBLE, values, best_obj, frontier_bound, stats)
    if best_values is None:
        return Solution(INFEASIBLE, {}, float("-inf"), float("-inf"), stats)
    values = {v.name: float(best_values[i]) for i, v in enumerate(model.variables)}
    return Solution(OPTIMAL, values, best_obj, best_obj, stats)


def check_solution(model: MilpModel, values: Mapping[str, float]) -> list[str]:
    """Names of constraints (or bound/integrality checks) the point violates."""
    violated = []
    for var in model.variables:
        val = values[var.name]
        if val < var.lower - FEAS_TOL or val > var.upper + FEAS_TOL:
            violated.append(f"bounds:{var.name}")
        elif var.integrality in (INTEGER, BINARY) and abs(val - round(val)) > FEAS_TOL:
            violated.append(f"integrality:{var.name}")
    for con in model.constraints:
        lhs = sum(c * values[v] for c, v in con.terms)
        ok = (
            (con.sense == LE and lhs <= con.rhs + FEAS_TOL)
            or (con.sense == GE and lhs >= con.rhs - FEAS_TOL)
            or (con.sense == EQ and abs(lhs - con.rhs) <= FEAS_TOL)
        )
        if not ok:
            violated.append(con.name)
    return violated


def import_solution(path, model: MilpModel) -> Solution:
    """Read a `variable_name value` file and verify it against the model."""
    values: dict[str, float] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SolutionImportError(f"line {lineno}: expected 'name value'")
            name, raw = parts
            if not model.has_variable(name):
                raise SolutionImportError(f"line {lineno}: unknown variable {name!r}")
            try:
                values[name] = float(raw)
            except ValueError as exc:
                raise SolutionImportError(f"line {lineno}: non-numeric value {raw!r}") from exc
    for var in model.variables:
        if var.name not in values:
            raise SolutionImportError(f"missing value for variable {var.name!r}")
    violated = check_solution(model, values)
    objective = sum(c * values[v] for c, v in model.objective)
    if violated:
        sol = Solution(INFEASIBLE, values, objective, float("inf"))
        sol.violated = violated  # type: ignore[attr-defined]
        return sol
    return Solution(FEASIBLE, values, objective, float("inf"))


def write_solution(solution: Solution, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# status {solution.status}\n")
        for name in solution.values:
            fh.write(f"{name} {solution.values[name]:.10g}\n")


# --- brute-force oracle ---------------------------------------------------

BRUTE_FORCE_GUARD = 10**8


@dataclass(frozen=True)
class OracleResult:
    status: str  # optimal | infeasible
    plan: FrequencyPlan | None
    objective: float | None


def _beam_options(beam, grid, weights, power_table, allow_inactive):
    """All (f, g, b, score) options for one beam, best score first."""
    b1, b2, b3, b4, b5 = weights.for_beam(beam.id)
    row_lo, row_hi = beam.row_range(grid)
    slot_lo, slot_hi = beam.slot_range(grid)
    options = []
    for g in range(row_lo, row_hi + 1):
        for b in range(beam.min_slots, slot_hi - slot_lo + 2):
            for f in range(slot_lo, slot_hi - b + 2):
                score = b1 * b - b2 * g - b3 * f + b5
                if b4 > 0:
                    score -= b4 * power_table[beam.id].value(f, b)
                options.append((score, f, g, b))
    options.sort(key=lambda o: (-o[0], o[1], o[2], o[3]))
    out = [(Assignment(f, g, b), score) for score, f, g, b in options]
    if allow_inactive:
        # deactivation contributes 0; keep relative order deterministic
        pos = 0
        while pos < len(out) and out[pos][1] > 0:
            pos += 1
        out.insert(pos, (Assignment.inactive(), 0.0))
    return out


def brute_force_best_plan(
    scenario: Scenario,
    restrictions: RestrictionSets,
    weights: ObjectiveWeights,
    power_table: Mapping[int, object] | None = None,
    allow_inactive: bool = False,
) -> OracleResult:
    """Exhaustively search all per-beam (f, g, b) combinations.

    Guarded by the product of theoretical per-beam option counts; raises
    InstanceTooLargeError beyond 1e8. Independent of the model IR and the
    branch-and-bound path.
    """
    grid = scenario.grid
    beams = sorted(scenario.beams, key=lambda b: b.id)
    per_beam = grid.n_fr * grid.n_p * grid.n_bw * grid.n_bw
    total = 1
    for _ in beams:
        total *= per_beam
        if total > BRUTE_FORCE_GUARD:
            raise InstanceTooLargeError(
                f"enumeration of {len(beams)} beams x {per_beam} options exceeds guard"
            )

    options = [
        _beam_options(beam, grid, weights, power_table, allow_inactive) for beam in beams
    ]
    if any(not opts for opts in options):
        return OracleResult(INFEASIBLE, None, None)

    intra = restrictions.intra
    inter = restrictions.inter
    partners: list[list[tuple[int, bool, bool]]] = [[] for _ in beams]
    index_of = {beam.id: pos for pos, beam in enumerate(beams)}
    for i, j in intra | inter:
        a, b = index_of[i], index_of[j]
        partners[max(a, b)].append((min(a, b), (i, j) in intra, (i, j) in inter))

    n_p = grid.n_p
    suffix_max = [0.0] * (len(beams) + 1)
    for pos in range(len(beams) - 1, -1, -1):
        suffix_max[pos] = suffix_max[pos + 1] + max(s for _, s in options[pos])

    best_score = float("-inf")
    best: list[Assignment] | None = None
    chosen: list[Assignment | None] = [None] * len(beams)

    def conflicts(pos: int, cand: Assignment) -> bool:
        if not cand.active:
            return False
        for other, is_intra, is_inter in partners[pos]:
            o = chosen[other]
            if o is None or not o.active:
                continue
            if not (cand.f <= o.f + o.b - 1 and o.f <= cand.f + cand.b - 1):
                continue
            if is_intra and cand.g == o.g:
                return True
            if is_inter and decompose_reuse(cand.g, n_p)[1] == decompose_reuse(o.g, n_p)[1]:
                return True
        return False

    def search(pos: int, score: float):
        nonlocal best_score, best
        if pos == len(beams):
            if score > best_score + OPT_TOL:
                best_score = score
                best = [a for a in chosen]  # type: ignore[misc]
            return
        for cand, cand_score in options[pos]:
            if score + cand_score + suffix_max[pos + 1] <= best_score + OPT_TOL:
                break  # options sorted: nothing further can improve
            if conflicts(pos, cand):
                continue
            chosen[pos] = cand
            search(pos + 1, score + cand_score)
        chosen[pos] = None

    search(0, 0.0)
    if best is None:
        return OracleResult(INFEASIBLE, None, None)
    plan = FrequencyPlan({beam.id: best[pos] for pos, beam in enumerate(beams)})
    return OracleResult(OPTIMAL, plan, best_score)


# --- exact option-selection search (iterative subproblems) ----------------


def solve_option_selection(
    scores: Sequence[Sequence[float]],
    allow_none: Sequence[bool],
    pair_conflict: Mapping[tuple[int, int], object],
    initial: Sequence[int | None] | None = None,
    node_budget: int = 0,
) -> tuple[list[int | None], float]:
    """Pick at most one option per group maximizing the score sum.

    ``scores[g]`` lists the option scores of group g in rank order
    (non-increasing), so option index, score rank and bit position are one;
    a group whose scores rise anywhere raises ValueError. Groups with
    ``allow_none[g]`` may also select nothing (contribution 0), otherwise a
    selection is mandatory. ``pair_conflict[(g1, g2)]`` (g1 < g2) is a
    conflict object saying which options collide: ``rows[opt1]`` is the int
    with bit ``opt2`` set for each option of g2 colliding with option
    ``opt1`` of g1, ``cols[opt2]`` the same for the options of g1, and
    ``size`` the number of cells of the matrix it stands for.

    Deterministic; with an unlimited budget, equivalent to solving the
    pairwise-constraint binary program exactly.

    ``initial`` seeds the incumbent with a known-feasible selection, given
    as option indices (ranks), which the result is then guaranteed to match
    or beat. ``node_budget`` > 0 caps the search tree per connected
    component; a truncated search returns the best selection found so far
    (anytime behavior).

    The search is depth-first with forward checking over connected
    components of the group conflict graph, always branching on the group
    with the fewest surviving candidates; the node bound sums the best
    still-compatible score per remaining group. Surviving candidates are
    int bitsets in score-rank order, so a group's best is its lowest set bit
    and its width is ``bit_count()`` (bit-parallel branch-and-bound after
    San Segundo, Rodriguez-Losada and Jimenez, Computers & OR 38(2), 2011).
    """
    n = len(scores)
    score_arr = [np.asarray(s, dtype=float) for s in scores]
    for g, s in enumerate(score_arr):
        if np.any(s[1:] > s[:-1]):
            raise ValueError(f"group {g} is not in rank order")
    rank_scores: list[list[float]] = [s.tolist() for s in score_arr]
    # None sits after every strictly positive option
    none_rank: list[int | None] = [
        int(np.count_nonzero(s > 0)) if allow_none[g] else None
        for g, s in enumerate(score_arr)
    ]

    # adj[g][h][r] -> bitset over h's options colliding with option r of g
    adj: list[dict] = [{} for _ in range(n)]
    for (g1, g2), conf in pair_conflict.items():
        adj[g1][g2], adj[g2][g1] = conf.rows, conf.cols

    mask = [(1 << len(s)) - 1 for s in rank_scores]
    none_width = [1 if allow_none[g] else 0 for g in range(n)]
    gb = [0.0] * n  # best still-compatible gain per group
    width = [0] * n  # surviving candidates per group, None included
    pick: list[int | None] = [None] * n
    infeasible = False
    neg_inf = float("-inf")

    def group_best(g: int) -> float:
        m = mask[g]
        best = rank_scores[g][(m & -m).bit_length() - 1] if m else neg_inf
        if allow_none[g]:
            best = max(best, 0.0)
        return best

    def candidates(g: int):
        """Still-compatible ranks in non-increasing gain order; None (when
        allowed) sits at its score-rank position."""
        m = mask[g]
        cut = none_rank[g]
        while m:
            low = m & -m
            r = low.bit_length() - 1
            if cut is not None and r >= cut:
                yield None
                cut = None
            yield r
            m ^= low
        if cut is not None:
            yield None

    # connected components of the group conflict graph are independent
    comp_of = list(range(n))

    def find(x: int) -> int:
        while comp_of[x] != x:
            comp_of[x] = comp_of[comp_of[x]]
            x = comp_of[x]
        return x

    for g1, g2 in pair_conflict:
        comp_of[find(g1)] = find(g2)
    components: dict[int, list[int]] = {}
    for g in range(n):
        components.setdefault(find(g), []).append(g)

    def solve_component(groups: list[int]) -> None:
        nonlocal infeasible
        best_total = neg_inf
        best_pick: dict[int, int | None] | None = None
        if initial is not None:
            best_total = sum(rank_scores[g][initial[g]] for g in groups if initial[g] is not None)
            best_pick = {g: initial[g] for g in groups}
        chosen: dict[int, int | None] = {}
        remaining = set(groups)
        # incrementally maintained per-group data over `remaining`
        for h in groups:
            gb[h] = group_best(h)
            width[h] = mask[h].bit_count() + none_width[h]
        nodes = 0

        def search(total: float) -> None:
            nonlocal best_total, best_pick, nodes
            nodes += 1
            if node_budget and nodes > node_budget:
                return
            if not remaining:
                if total > best_total + OPT_TOL:
                    best_total = total
                    best_pick = dict(chosen)
                return
            bound = total
            branch, branch_width = None, math.inf
            for h in sorted(remaining):
                if gb[h] == neg_inf:
                    return  # mandatory group fully pruned: dead end
                bound += gb[h]
                if width[h] < branch_width:
                    branch, branch_width = h, width[h]
            if bound <= best_total + OPT_TOL:
                return
            g = branch
            rest = bound - total - gb[g]
            remaining.discard(g)
            for opt in candidates(g):
                if node_budget and nodes > node_budget:
                    break
                gain = rank_scores[g][opt] if opt is not None else 0.0
                if total + gain + rest <= best_total + OPT_TOL:
                    break  # gains only shrink from here on
                chosen[g] = opt
                if opt is None:
                    search(total)
                else:
                    saved = []
                    for h, rows in adj[g].items():
                        if h not in remaining:
                            continue
                        row = rows[opt]
                        if row:
                            saved.append((h, mask[h], gb[h], width[h]))
                            mask[h] &= ~row
                            gb[h] = group_best(h)
                            width[h] = mask[h].bit_count() + none_width[h]
                    search(total + gain)
                    for h, m_old, gb_old, w_old in saved:
                        mask[h], gb[h], width[h] = m_old, gb_old, w_old
                del chosen[g]
            remaining.add(g)

        search(0.0)
        # the recursive closure refers to itself through its cell; drop it so
        # the component's state goes now, not at the next cyclic collection
        del search
        if best_pick is None:
            infeasible = True
            return
        for g, r in best_pick.items():
            pick[g] = r

    for root in sorted(components, key=lambda r: min(components[r])):
        solve_component(sorted(components[root]))
        if infeasible:
            raise UnsupportedModelError("option selection has no feasible point")

    total = sum(rank_scores[g][pick[g]] for g in range(n) if pick[g] is not None)
    return pick, total

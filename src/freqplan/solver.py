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
  the iterative optimizer's subproblems.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
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
    max_seconds: float = 0.0
    absolute_gap: float = 0.0


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
    """
    n = len(model.variables)
    for var in model.variables:
        if var.integrality not in (INTEGER, BINARY):
            raise UnsupportedModelError(f"variable {var.name} is not integral")

    lb0 = [int(math.ceil(v.lower - FEAS_TOL)) for v in model.variables]
    ub0 = [int(math.floor(v.upper + FEAS_TOL)) for v in model.variables]

    cons = []
    var_cons: list[list[int]] = [[] for _ in range(n)]
    for con in model.constraints:
        idx = len(cons)
        terms = tuple((c, model.variable_index(v)) for c, v in con.terms)
        cons.append((terms, con.sense, con.rhs))
        for _, v in terms:
            var_cons[v].append(idx)
    obj = _objective_coefs(model, n)
    obj_terms = tuple((c, v) for v, c in enumerate(obj) if c != 0.0)
    integral_obj = all(float(c).is_integer() for c, _ in obj_terms)
    improve_step = 1.0 if integral_obj else OPT_TOL

    start = time.perf_counter()
    stats = SolveStats()
    best_obj = float("-inf")
    best_values: list[int] | None = None
    frontier_bound = float("-inf")
    hit_limit = False

    def tighten(terms, rhs, lb, ub) -> bool:
        """Enforce sum(terms) <= rhs by interval tightening. False = empty."""
        minact = 0.0
        for c, v in terms:
            minact += c * (lb[v] if c > 0 else ub[v])
        if minact > rhs + FEAS_TOL:
            return False
        for c, v in terms:
            if c > 0:
                hi = math.floor((rhs - minact + c * lb[v]) / c + FEAS_TOL)
                if hi < ub[v]:
                    ub[v] = hi
                    if lb[v] > hi:
                        return False
                    changed.update(var_cons[v])
            else:
                lo = math.ceil((rhs - minact + c * ub[v]) / c - FEAS_TOL)
                if lo > lb[v]:
                    lb[v] = lo
                    if lo > ub[v]:
                        return False
                    changed.update(var_cons[v])
        return True

    def propagate(lb, ub) -> bool:
        """Fixpoint bound propagation over all constraints plus the
        incumbent objective cut. False = infeasible."""
        queue = set(range(len(cons)))
        use_cut = best_obj > float("-inf") and obj_terms
        while queue or changed:
            queue |= changed
            changed.clear()
            if not queue:
                break
            idx = min(queue)
            queue.discard(idx)
            terms, sense, rhs = cons[idx]
            if sense in (LE, EQ):
                if not tighten(terms, rhs, lb, ub):
                    return False
            if sense in (GE, EQ):
                neg = tuple((-c, v) for c, v in terms)
                if not tighten(neg, -rhs, lb, ub):
                    return False
            if use_cut:
                # maximize: require obj >= best + step
                neg = tuple((-c, v) for c, v in obj_terms)
                if not tighten(neg, -(best_obj + improve_step), lb, ub):
                    return False
        if use_cut:
            neg = tuple((-c, v) for c, v in obj_terms)
            if not tighten(neg, -(best_obj + improve_step), lb, ub):
                return False
        return True

    def obj_upper(lb, ub) -> float:
        total = 0.0
        for c, v in obj_terms:
            total += c * (ub[v] if c > 0 else lb[v])
        return total

    stack: list[tuple[list[int], list[int], float]] = [(lb0, ub0, float("inf"))]
    changed: set[int] = set()

    while stack:
        if limits.max_nodes and stats.nodes >= limits.max_nodes:
            hit_limit = True
            break
        if limits.max_seconds and time.perf_counter() - start > limits.max_seconds:
            hit_limit = True
            break
        lb, ub, parent_bound = stack.pop()
        if parent_bound <= best_obj + limits.absolute_gap and best_values is not None:
            frontier_bound = max(frontier_bound, parent_bound)
            continue
        stats.nodes += 1
        changed.clear()
        if any(lb[v] > ub[v] for v in range(n)):
            continue
        if not propagate(lb, ub):
            continue
        bound = obj_upper(lb, ub)
        if best_values is not None and bound <= best_obj + limits.absolute_gap:
            frontier_bound = max(frontier_bound, bound)
            continue
        branch_var = next((v for v in range(n) if lb[v] < ub[v]), None)
        if branch_var is None:
            value = sum(c * lb[v] for c, v in obj_terms)
            if value > best_obj + OPT_TOL:
                best_obj = value
                best_values = lb.copy()
            continue
        mid = (lb[branch_var] + ub[branch_var]) // 2
        low_lb, low_ub = lb.copy(), ub.copy()
        low_ub[branch_var] = mid
        high_lb, high_ub = lb.copy(), ub.copy()
        high_lb[branch_var] = mid + 1
        low = (low_lb, low_ub, bound)
        high = (high_lb, high_ub, bound)
        if obj[branch_var] > 0:
            stack.append(low)
            stack.append(high)  # popped first: objective-improving half
        else:
            stack.append(high)
            stack.append(low)

    stats.wall_seconds = time.perf_counter() - start
    if hit_limit:
        frontier_bound = max(
            [frontier_bound] + [b for _, _, b in stack] + [best_obj]
        )
        if best_values is None:
            return Solution(LIMIT_REACHED, {}, float("-inf"), frontier_bound, stats)
        values = {v.name: float(best_values[i]) for i, v in enumerate(model.variables)}
        return Solution(FEASIBLE, values, best_obj, frontier_bound, stats)
    if best_values is None:
        return Solution(INFEASIBLE, {}, float("-inf"), float("-inf"), stats)
    values = {v.name: float(best_values[i]) for i, v in enumerate(model.variables)}
    if limits.absolute_gap > 0:
        bound = max(frontier_bound, best_obj)
        status = OPTIMAL if bound <= best_obj + OPT_TOL else FEASIBLE
        return Solution(status, values, best_obj, bound, stats)
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
        lo, hi = min(a, b), max(a, b)
        key = (min(i, j), max(i, j))
        partners[hi].append((lo, key in intra, key in inter))

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


def _packed_rows(mat: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int whose bit v is column v."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def solve_option_selection(
    scores: Sequence[Sequence[float]],
    allow_none: Sequence[bool],
    pair_conflict: Mapping[tuple[int, int], object],
    initial: Sequence[int | None] | None = None,
    node_budget: int = 0,
) -> tuple[list[int | None], float]:
    """Pick at most one option per group maximizing the score sum.

    ``scores[g]`` lists option scores for group g; groups with
    ``allow_none[g]`` may also select nothing (contribution 0), otherwise a
    selection is mandatory. ``pair_conflict[(g1, g2)]`` (g1 < g2) says which
    concrete options collide, in one of two forms:

    * a boolean matrix indexed ``[opt1, opt2]``;
    * a conflict object exposing ``rows[opt1]`` (the options of g2 that
      collide with ``opt1``, as an int with bit ``opt2`` set) and
      ``cols[opt2]`` (the options of g1, likewise), plus ``size``, the
      number of cells of the matrix it stands for. Both of its groups must
      list their scores in rank order (non-increasing), so that option
      index and bit position equal score rank.

    Deterministic; with an unlimited budget, equivalent to solving the
    pairwise-constraint binary program exactly.

    ``initial`` seeds the incumbent with a known-feasible selection, which
    the result is then guaranteed to match or beat. ``node_budget`` > 0
    caps the search tree per connected component; a truncated search
    returns the best selection found so far (anytime behavior).

    The search is depth-first with forward checking over connected
    components of the group conflict graph, always branching on the group
    with the fewest surviving candidates; the node bound sums the best
    still-compatible score per remaining group. Surviving candidates are
    int bitsets in score-rank order, so a group's best is its lowest set bit
    and its width is ``bit_count()`` (bit-parallel branch-and-bound after
    San Segundo, Rodriguez-Losada and Jimenez, Computers & OR 38(2), 2011).
    """
    n = len(scores)
    # rank r of group g is option ranked[g][r]: score descending, then index
    score_arr = [np.asarray(s, dtype=float) for s in scores]
    ranked = [np.argsort(-s, kind="stable") for s in score_arr]
    rank_scores: list[list[float]] = [s[r].tolist() for s, r in zip(score_arr, ranked)]
    # None sits after every strictly positive option
    none_rank: list[int | None] = [
        int(np.count_nonzero(s > 0)) if allow_none[g] else None
        for g, s in enumerate(score_arr)
    ]

    # adj[g][h][r] -> bitset over h's ranks colliding with rank r of g
    adj: list[dict] = [{} for _ in range(n)]
    for (g1, g2), conf in pair_conflict.items():
        if hasattr(conf, "rows"):
            for g in (g1, g2):
                if np.any(ranked[g] != np.arange(len(ranked[g]))):
                    raise ValueError(f"group {g} of a conflict object is not in rank order")
            adj[g1][g2], adj[g2][g1] = conf.rows, conf.cols
        else:
            mat = np.asarray(conf, dtype=bool)[np.ix_(ranked[g1], ranked[g2])]
            adj[g1][g2], adj[g2][g1] = _packed_rows(mat), _packed_rows(mat.T)

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

    initial_rank: list[int | None] | None = None
    if initial is not None:
        initial_rank = [
            None if opt is None else int(np.flatnonzero(ranked[g] == opt)[0])
            for g, opt in enumerate(initial)
        ]

    def solve_component(groups: list[int]) -> None:
        nonlocal infeasible
        best_total = neg_inf
        best_pick: dict[int, int | None] | None = None
        if initial_rank is not None:
            best_total = sum(
                rank_scores[g][initial_rank[g]] for g in groups if initial_rank[g] is not None
            )
            best_pick = {g: initial_rank[g] for g in groups}
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
        if best_pick is None:
            infeasible = True
            return
        for g, r in best_pick.items():
            pick[g] = None if r is None else int(ranked[g][r])

    for root in sorted(components, key=lambda r: min(components[r])):
        solve_component(sorted(components[root]))
        if infeasible:
            raise UnsupportedModelError("option selection has no feasible point")

    total = sum(
        float(score_arr[g][pick[g]]) for g in range(n) if pick[g] is not None
    )
    return pick, total

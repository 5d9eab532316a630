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
  beam's scores in rank order (an ``iterative.OptionSet``'s ``score``) and
  one conflict object of int bitsets per restricted pair (``_subproblem``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, InstanceTooLargeError, UnsupportedModelError
from .milp import BINARY, GE, INTEGER, LE, MilpModel
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
    """Search limits; zero means unlimited, a negative limit is a
    DomainError."""

    max_nodes: int = 0

    def __post_init__(self) -> None:
        if self.max_nodes < 0:
            raise DomainError("max_nodes must be >= 0")


@dataclass
class SolveStats:
    nodes: int = 0


@dataclass
class Solution:
    status: str
    values: dict[str, float] = field(default_factory=dict)
    objective: float = float("-inf")
    bound: float = float("inf")
    stats: SolveStats = field(default_factory=SolveStats)


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
    starts from its parent's fixpoint. A row's minimum activity, and so
    every bound it implies, reads ``lb[v]`` where v's coefficient is
    positive and ``ub[v]`` where it is negative, so a rising ``lb[v]`` wakes
    only the former rows and a falling ``ub[v]`` only the latter
    (event-driven propagation after Achterberg, *Constraint Integer
    Programming*, PhD thesis, TU Berlin, 2007). The low child of a branch
    (``ub`` lowered) and the high child (``lb`` raised) seed those rows of
    the branched variable, plus the cut row when the incumbent has improved
    since the parent was propagated. A popped row
    whose slack ``rhs - minact`` is at least its largest ``|c| * (ub - lb)``
    implies no bound inside any domain and skips its tightening loop
    (``FEAS_TOL`` covers the rounding). A row left asleep or skipped would
    have tightened nothing and the worklist still pops the lowest row
    first, so the tightenings, the fixpoint and the search tree are those
    of waking every row of a changed variable.
    """
    n = len(model.variables)
    lb0: list[int] = []
    ub0: list[int] = []
    for name, lower, upper, integrality in model.variables:
        if integrality not in (INTEGER, BINARY):
            raise UnsupportedModelError(f"variable {name} is not integral")
        lb0.append(math.ceil(lower - FEAS_TOL))
        ub0.append(math.floor(upper + FEAS_TOL))

    # rows[r] holds the (coef, var) terms of sum(terms) <= rhs[r]; a zero
    # coefficient adds nothing to a row and implies no bound, so it is dropped.
    # A row's minimum activity reads lb[v] where v's coefficient is positive
    # and ub[v] where it is negative: lb_rows[v] and ub_rows[v] are the rows
    # a rise of lb[v] and a fall of ub[v] can tighten or fail. One pass over
    # the constraints compiles the rows and fills both lists.
    index = model._index
    rows: list[tuple[tuple[float, int], ...]] = []
    rhs: list[float] = []
    lb_rows: list[list[int]] = [[] for _ in range(n)]
    ub_rows: list[list[int]] = [[] for _ in range(n)]

    def add_row(row: tuple[tuple[float, int], ...], limit: float) -> int:
        r = len(rows)
        for c, v in row:
            (lb_rows if c > 0 else ub_rows)[v].append(r)
        rows.append(row)
        rhs.append(limit)
        return r

    for _, terms, sense, limit in model.constraints:
        if sense != GE:  # LE, or the first row of EQ
            add_row(tuple([(c, index[v]) for c, v in terms if c != 0.0]), limit)
        if sense != LE:  # GE, or the second row of EQ: negated
            add_row(tuple([(-c, index[v]) for c, v in terms if c != 0.0]), -limit)
    obj = [0.0] * n
    for c, name in model.objective:
        obj[index[name]] += c
    obj_terms = tuple((c, v) for v, c in enumerate(obj) if c != 0.0)
    integral_obj = all(float(c).is_integer() for c, _ in obj_terms)
    improve_step = 1.0 if integral_obj else OPT_TOL
    # the incumbent cut -objective <= -(best + step) is the last row; its
    # variables wake it from the start, but it stays empty, a no-op, until
    # the first incumbent
    cut = None
    cut_terms = tuple((-c, v) for c, v in obj_terms)
    if obj_terms:
        cut = add_row(cut_terms, 0.0)
        rows[cut] = ()

    stats = SolveStats()
    best_obj = float("-inf")
    best_values: list[int] | None = None
    queue: list[int] = []
    queued = [False] * len(rows)

    def wake(woken: list[int]) -> None:
        for r in woken:
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
            span = 0.0  # the largest |c| * (ub - lb) of the row's terms
            for c, v in terms:
                if c > 0:
                    minact += c * lb[v]
                    width = c * (ub[v] - lb[v])
                else:
                    minact += c * ub[v]
                    width = c * (lb[v] - ub[v])
                if width > span:
                    span = width
            if minact > limit + FEAS_TOL:
                return False
            if limit - minact >= span:
                continue  # the slack covers every term's domain: nothing tightens
            for c, v in terms:
                if c > 0:
                    hi = math.floor((limit - minact + c * lb[v]) / c + FEAS_TOL)
                    if hi < ub[v]:
                        ub[v] = hi
                        if lb[v] > hi:
                            return False
                        wake(ub_rows[v])
                else:
                    lo = math.ceil((limit - minact + c * ub[v]) / c - FEAS_TOL)
                    if lo > lb[v]:
                        lb[v] = lo
                        if lo > ub[v]:
                            return False
                        wake(lb_rows[v])
        return True

    def obj_upper(lb, ub) -> float:
        total = 0.0
        for c, v in obj_terms:
            total += c * (ub[v] if c > 0 else lb[v])
        return total

    # (lb, ub, parent bound, the rows the branching bound change wakes or
    # None at the root, the incumbent the parent was propagated against)
    stack: list[tuple[list[int], list[int], float, list[int] | None, float]] = [
        (lb0, ub0, float("inf"), None, best_obj)
    ]

    while stack:
        if limits.max_nodes and stats.nodes >= limits.max_nodes:
            break
        lb, ub, parent_bound, woken, seen_obj = stack.pop()
        if parent_bound <= best_obj and best_values is not None:
            continue
        stats.nodes += 1
        if woken is None:
            if any(lb[v] > ub[v] for v in range(n)):
                continue
            queue[:] = range(len(rows))
            queued[:] = [True] * len(rows)
        else:
            wake(woken)
            if cut is not None and best_obj != seen_obj:
                wake([cut])
        if not propagate(lb, ub):
            for r in queue:
                queued[r] = False
            queue.clear()
            continue
        bound = obj_upper(lb, ub)
        if best_values is not None and bound <= best_obj:
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
        low = (low_lb, low_ub, bound, ub_rows[branch_var], best_obj)
        high = (high_lb, high_ub, bound, lb_rows[branch_var], best_obj)
        if obj[branch_var] > 0:
            stack.append(low)
            stack.append(high)  # popped first: objective-improving half
        else:
            stack.append(high)
            stack.append(low)

    # a pruned node's bound never exceeds the incumbent, so the best of the
    # incumbent and the open nodes' parent bounds bounds every plan; the
    # search stopped at the node limit iff nodes are left open
    bound = max([node[2] for node in stack] + [best_obj])
    if best_values is None:
        return Solution(LIMIT_REACHED if stack else INFEASIBLE, {}, best_obj, bound, stats)
    values = dict(zip(index, map(float, best_values)))  # index: the names in order
    return Solution(FEASIBLE if stack else OPTIMAL, values, best_obj, bound, stats)


# --- brute-force oracle ---------------------------------------------------

BRUTE_FORCE_GUARD = 10**8


@dataclass(frozen=True)
class OracleResult:
    status: str  # optimal | infeasible
    plan: FrequencyPlan | None
    objective: float | None


def _beam_options(beam, grid, weights, power_table, allow_inactive):
    """All (f, g, b, score) options for one beam, best score first."""
    b1, b2, b3, b4, b5 = weights.coefficients()
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
    restrictions.check_ids(scenario.beam_ids())
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

    # per position, each earlier restricted partner's [is intra, is inter]
    partners: list[dict[int, list[bool]]] = [{} for _ in beams]
    index_of = {beam.id: pos for pos, beam in enumerate(beams)}
    for is_inter, kind in enumerate(("intra", "inter")):
        for i, j in restrictions.pairs[kind].tolist():
            a, b = index_of[i], index_of[j]
            partners[max(a, b)].setdefault(min(a, b), [False, False])[is_inter] = True

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
        for other, (is_intra, is_inter) in partners[pos].items():
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
    or beat; the iterative optimizer passes its OptionSets' keep-as-is
    ranks. ``node_budget`` > 0 caps the search tree per connected component;
    a truncated search returns the best selection found so far (anytime
    behavior). 0 is unlimited; a negative budget is a DomainError.

    The search is depth-first with forward checking over connected
    components of the group conflict graph, in the order of their lowest
    group, always branching on the group with the fewest surviving
    candidates (the lowest id on ties). Surviving candidates are int
    bitsets in score-rank order, so a group's width is ``bit_count()``
    (bit-parallel branch-and-bound after San Segundo, Rodriguez-Losada and
    Jimenez, Computers & OR 38(2), 2011) and its best gain is read from one
    table per group at the position of the lowest set bit: entry 0 (nothing
    left) is 0.0 for a group that may select nothing and -inf otherwise,
    and such a group's negative scores read 0.0. The node bound sums these
    gains over the remaining groups, left to right in ascending id order,
    so a mandatory group left without options makes it -inf. Each node
    saves its unchosen neighbours' masks, gains and widths once, and every
    child is set from that saved state, so no child depends on the siblings
    tried before it. Each child is counted against the budget and tested
    against the bound in its parent's candidate loop, and only a surviving
    child is searched, so a node is never entered just to be pruned; the
    tree and visit order are those of testing on entry.
    """
    if node_budget < 0:
        raise DomainError("node_budget must be >= 0")
    limit = node_budget or math.inf
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
    # gain[g][(m & -m).bit_length()] is the best gain surviving bitset m of g
    # still reaches
    neg_inf = float("-inf")
    gain = [
        [0.0 if allow else neg_inf] + ([0.0 if x < 0.0 else x for x in s] if allow else s)
        for s, allow in zip(rank_scores, allow_none)
    ]

    # adj[g][h][r] -> bitset over h's options colliding with option r of g
    adj: list[dict] = [{} for _ in range(n)]
    for (g1, g2), conf in pair_conflict.items():
        adj[g1][g2], adj[g2][g1] = conf.rows, conf.cols

    mask = [(1 << len(s)) - 1 for s in rank_scores]
    none_width = [1 if allow_none[g] else 0 for g in range(n)]
    gb = [row[(m & -m).bit_length()] for row, m in zip(gain, mask)]  # best gain per group
    width = [m.bit_count() + w for m, w in zip(mask, none_width)]  # None included
    pick: list[int | None] = [None] * n

    def solve_component(groups: list[int]) -> None:
        best_total = neg_inf
        best_pick: dict[int, int | None] | None = None
        if initial is not None:
            best_total = sum(rank_scores[g][initial[g]] for g in groups if initial[g] is not None)
            best_pick = {g: initial[g] for g in groups}
        chosen: dict[int, int | None] = {}
        # the unchosen groups in ascending id order, the order the bound sums
        # them in; a group adjacent to the branched one is unchosen iff it is
        # not in `chosen`
        remaining = list(groups)
        nodes = 1  # the root

        def search(total: float, bound: float, g: int) -> None:
            """Branch on g at a node already counted and tested (bound above
            the incumbent). Each child is counted and tested here and only
            the survivors are searched, so the tree is the one a test at
            node entry gives."""
            nonlocal best_total, best_pick, nodes
            rest = bound - total - gb[g]
            at = remaining.index(g)
            del remaining[at]
            # the unchosen neighbours' state, saved once; each child is set
            # from it, and it is restored when the loop ends
            live = [(h, rows, mask[h], gb[h], width[h]) for h, rows in adj[g].items() if h not in chosen]
            scores_g = rank_scores[g]
            m, cut = mask[g], none_rank[g]
            # the still-compatible ranks in non-increasing gain order; None
            # (when allowed) sits at its score-rank position
            while m or cut is not None:
                low = m & -m
                opt = low.bit_length() - 1
                if cut is not None and (not m or opt >= cut):
                    opt = cut = None
                else:
                    m ^= low
                score = scores_g[opt] if opt is not None else 0.0
                if total + score + rest <= best_total + OPT_TOL:
                    break  # gains only shrink from here on
                nodes += 1
                if nodes > limit:
                    break
                chosen[g] = opt
                if opt is None:
                    child = total
                    for h, _, m_h, gb_h, w_h in live:
                        mask[h], gb[h], width[h] = m_h, gb_h, w_h
                else:
                    child = total + score
                    for h, rows, m_h, _, _ in live:
                        new = mask[h] = m_h & ~rows[opt]
                        gb[h] = gain[h][(new & -new).bit_length()]
                child_bound = functools.reduce(operator.add, map(gb.__getitem__, remaining), child)
                if child_bound > best_total + OPT_TOL:
                    if not remaining:  # a leaf, whose bound is its total
                        best_total, best_pick = child, dict(chosen)
                    else:
                        for h, *_ in live:
                            width[h] = mask[h].bit_count() + none_width[h]
                        search(child, child_bound, min(remaining, key=width.__getitem__))
            for h, _, m_h, gb_h, w_h in live:
                mask[h], gb[h], width[h] = m_h, gb_h, w_h
            chosen.pop(g, None)
            remaining.insert(at, g)

        # the root, tested as a child is above
        bound = functools.reduce(operator.add, map(gb.__getitem__, groups), 0.0)
        if bound > best_total + OPT_TOL:
            search(0.0, bound, min(groups, key=width.__getitem__))
        # the recursive closure refers to itself through its cell; drop it so
        # the component's state goes now, not at the next cyclic collection
        del search
        if best_pick is None:
            raise UnsupportedModelError("option selection has no feasible point")
        for g, r in best_pick.items():
            pick[g] = r

    # connected components of the group conflict graph are independent
    seen = [False] * n
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            groups = [root]
            for g in groups:  # breadth first: groups grows as it is read
                for h in adj[g]:
                    if not seen[h]:
                        seen[h] = True
                        groups.append(h)
            solve_component(sorted(groups))

    total = sum(rank_scores[g][pick[g]] for g in range(n) if pick[g] is not None)
    return pick, total

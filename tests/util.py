"""Shared builders and independent reference implementations for the tests.

Everything here is deliberately written without reusing package internals
beyond the public data types, so oracle comparisons stay independent. The
one exception is the reference warm-start repair, which re-runs the public
``validate_plan`` exactly as the loop it preserves did.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from freqplan import (
    Assignment,
    Beam,
    ConstellationGeometry,
    FrequencyGrid,
    FrequencyPlan,
    ObjectiveWeights,
    RestrictionSets,
    Scenario,
    validate_plan,
)
from freqplan.errors import UnsupportedModelError

REF_OPT_TOL = 1e-9


def random_instance(
    rng: np.random.Generator,
    max_beams: int = 5,
    max_bw: int = 5,
    max_fr: int = 2,
    n_p: int = 2,
    density_choices: tuple[float, ...] = (0.0, 0.3, 1.0),
) -> tuple[Scenario, ObjectiveWeights]:
    """Small random instance with explicit restriction sets."""
    n_bw = int(rng.integers(2, max_bw + 1))
    n_fr = int(rng.integers(1, max_fr + 1))
    n_b = int(rng.integers(2, max_beams + 1))
    # keep the instance inside the brute-force enumeration guard (1e8)
    per_beam = n_fr * n_p * n_bw * n_bw
    while per_beam**n_b > 10**8:
        n_b -= 1
    grid = FrequencyGrid(n_bw=n_bw, n_fr=n_fr, n_p=n_p)
    beams = tuple(
        Beam(
            id=i + 1,
            lat=float(rng.uniform(-50, 50)),
            lon=float(rng.uniform(0, 360)),
            demand_bps=float(rng.uniform(1e6, 1e8)),
            min_slots=int(rng.integers(1, n_bw + 1)),
        )
        for i in range(n_b)
    )
    pairs = [(i + 1, j + 1) for i in range(n_b) for j in range(i + 1, n_b)]
    d_intra = float(rng.choice(density_choices))
    d_inter = float(rng.choice(density_choices))
    intra = [p for p in pairs if rng.random() < d_intra]
    inter = [p for p in pairs if rng.random() < d_inter]
    scenario = Scenario(
        grid=grid,
        beams=beams,
        geometry=ConstellationGeometry(n_s=2, altitude_km=8062.0),
        restrictions=RestrictionSets.of(intra=intra, inter=inter),
    )
    weights = ObjectiveWeights(
        beta1=1.0,
        beta2=float(rng.uniform(0, 0.3)),
        beta3=float(rng.uniform(0, 0.3)),
    )
    return scenario, weights


def ref_decompose(g: int, n_p: int) -> tuple[int, int]:
    """Reference reuse/polarization split: smallest k >= g / n_p."""
    k = math.ceil(g / n_p)
    return k, n_p * k - g


def ref_intervals_overlap(f1: int, b1: int, f2: int, b2: int) -> bool:
    return max(f1, f2) <= min(f1 + b1 - 1, f2 + b2 - 1)


def ref_plan_is_valid(
    plan: FrequencyPlan,
    grid: FrequencyGrid,
    restrictions: RestrictionSets,
    beams,
) -> bool:
    """Reference validity check, written independently of validate_plan."""
    by_id = {b.id: b for b in beams}
    for beam_id, beam in by_id.items():
        a = plan[beam_id]
        if not a.active:
            continue
        row_lo, row_hi = beam.allowed_rows or (1, grid.n_fr * grid.n_p)
        slot_lo, slot_hi = beam.allowed_slots or (1, grid.n_bw)
        if a.b < beam.min_slots or a.f < slot_lo or a.f + a.b - 1 > slot_hi:
            return False
        if not (row_lo <= a.g <= row_hi):
            return False
    for i, j in restrictions.intra:
        ai, aj = plan[i], plan[j]
        if ai.active and aj.active and ai.g == aj.g:
            if ref_intervals_overlap(ai.f, ai.b, aj.f, aj.b):
                return False
    for i, j in restrictions.inter:
        ai, aj = plan[i], plan[j]
        if ai.active and aj.active:
            if ref_decompose(ai.g, grid.n_p)[1] == ref_decompose(aj.g, grid.n_p)[1]:
                if ref_intervals_overlap(ai.f, ai.b, aj.f, aj.b):
                    return False
    return True


def all_active_plans(scenario: Scenario):
    """Yield every all-active plan over the per-beam (f, g, b) domains."""
    grid = scenario.grid
    per_beam = []
    for beam in scenario.beams:
        row_lo, row_hi = beam.allowed_rows or (1, grid.n_fr * grid.n_p)
        slot_lo, slot_hi = beam.allowed_slots or (1, grid.n_bw)
        opts = [
            (f, g, b)
            for g in range(row_lo, row_hi + 1)
            for b in range(beam.min_slots, slot_hi - slot_lo + 2)
            for f in range(slot_lo, slot_hi - b + 2)
        ]
        per_beam.append(opts)
    ids = [b.id for b in scenario.beams]
    for combo in itertools.product(*per_beam):
        yield FrequencyPlan(
            {i: Assignment(f, g, b) for i, (f, g, b) in zip(ids, combo)}
        )


def model_accepts_plan(model, scenario: Scenario, plan: FrequencyPlan) -> bool:
    """Whether an all-active plan extends to a feasible point of the model.

    The plan fixes f/g/b (and the implied k/m); the pair binaries are
    existentially quantified, so each pair's auxiliary combinations are
    enumerated independently (constraints never couple two pairs).
    """
    values: dict[str, float] = {}
    grid = scenario.grid
    for beam in scenario.beams:
        a = plan[beam.id]
        k, m = ref_decompose(a.g, grid.n_p)
        values[f"f_{beam.id}"] = float(a.f)
        values[f"g_{beam.id}"] = float(a.g)
        values[f"b_{beam.id}"] = float(a.b)
        values[f"k_{beam.id}"] = float(k)
        values[f"m_{beam.id}"] = float(m)

    # bounds on the fixed integer variables must hold
    aux_names = []
    for var in model.variables:
        if var.name in values:
            if not (var.lower - 1e-9 <= values[var.name] <= var.upper + 1e-9):
                return False
        else:
            aux_names.append(var.name)

    by_pair: dict[tuple[str, str], list[str]] = {}
    for name in aux_names:
        kind, i, j = name.split("_")
        by_pair.setdefault((i, j), []).append(name)

    cons_by_pair: dict[tuple[str, str], list] = {p: [] for p in by_pair}
    base_cons = []
    for con in model.constraints:
        pair = None
        for _, v in con.terms:
            if v not in values:
                kind, i, j = v.split("_")
                pair = (i, j)
                break
        if pair is None:
            base_cons.append(con)
        else:
            cons_by_pair[pair].append(con)

    def holds(con, vals) -> bool:
        lhs = sum(c * vals[v] for c, v in con.terms)
        if con.sense == "<=":
            return lhs <= con.rhs + 1e-9
        if con.sense == ">=":
            return lhs >= con.rhs - 1e-9
        return abs(lhs - con.rhs) <= 1e-9

    if not all(holds(con, values) for con in base_cons):
        return False
    for pair, names in by_pair.items():
        satisfied = False
        for combo in itertools.product((0.0, 1.0), repeat=len(names)):
            vals = dict(values)
            vals.update(zip(names, combo))
            if all(holds(con, vals) for con in cons_by_pair[pair]):
                satisfied = True
                break
        if not satisfied:
            return False
    return True


def ref_options_collide(oi, oj, is_intra: bool, is_inter: bool, n_p: int) -> bool:
    """Reference collision rule for two candidates of restricted beams:
    overlapping slot intervals on the same row (intra) or on the same
    polarization (inter)."""
    if not ref_intervals_overlap(oi.f, oi.b, oj.f, oj.b):
        return False
    if is_intra and oi.g == oj.g:
        return True
    return is_inter and ref_decompose(oi.g, n_p)[1] == ref_decompose(oj.g, n_p)[1]


def _ref_blocked(beam_id, cand, grid, plan, restrictions, selected) -> bool:
    """Whether ``cand`` collides with an active restricted partner of the
    beam that is not being re-optimized."""
    for i, j in restrictions.intra | restrictions.inter:
        if beam_id not in (i, j):
            continue
        other = j if i == beam_id else i
        if other in selected or not plan[other].active:
            continue
        if ref_options_collide(
            cand, plan[other], (i, j) in restrictions.intra, (i, j) in restrictions.inter, grid.n_p
        ):
            return True
    return False


def _ref_score(beam_id, a, weights, power_table) -> float:
    b1, b2, b3, b4, b5 = weights.for_beam(beam_id)
    score = b1 * a.b - b2 * a.g - b3 * a.f + b5
    if b4 > 0:
        score -= b4 * power_table[beam_id].value(a.f, a.b)
    return score


def ref_enumerate_options(beam, grid, plan, restrictions, selected, cap, weights, power_table=None):
    """Reference candidate ranking: every (g, b, f) of the beam's domain
    that collides with no active partner outside ``selected``, the best
    ``cap`` per slot count (ties to lower f, then g), ranked by
    (-score, f, g, b)."""
    row_lo, row_hi = beam.allowed_rows or (1, grid.n_fr * grid.n_p)
    slot_lo, slot_hi = beam.allowed_slots or (1, grid.n_bw)
    kept = []
    for b in range(beam.min_slots, slot_hi - slot_lo + 2):
        cands = []
        for g in range(row_lo, row_hi + 1):
            for f in range(slot_lo, slot_hi - b + 2):
                cand = Assignment(f, g, b)
                if _ref_blocked(beam.id, cand, grid, plan, restrictions, selected):
                    continue
                cands.append((_ref_score(beam.id, cand, weights, power_table), f, g, b))
        cands.sort(key=lambda c: (-c[0], c[1], c[2]))
        kept += cands if cap is None else cands[:cap]
    kept.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    return [(f, g, b, score) for score, f, g, b in kept]


def ref_reoptimize(scenario, restrictions, weights, plan, picked, cap, node_budget, power_table=None):
    """Reference iteration step: re-optimize the ``picked`` beams of
    ``plan`` with the reference ranking, dense pairwise conflict matrices
    and the reference search, the keep-as-is candidate appended last.
    Returns the new plan."""
    grid = scenario.grid
    beams = {b.id: b for b in scenario.beams}
    selected = set(picked)
    full, scores, allow, initial = [], [], [], []
    for i in picked:
        opts = ref_enumerate_options(
            beams[i], grid, plan, restrictions, selected, cap, weights, power_table
        )
        a, beam = plan[i], beams[i]
        row_lo, row_hi = beam.allowed_rows or (1, grid.n_fr * grid.n_p)
        slot_lo, slot_hi = beam.allowed_slots or (1, grid.n_bw)
        keep = (
            a.active
            and row_lo <= a.g <= row_hi
            and slot_lo <= a.f
            and a.f + a.b - 1 <= slot_hi
            and a.b >= beam.min_slots
            and not _ref_blocked(i, a, grid, plan, restrictions, selected)
        )
        if keep:
            opts = opts + [(a.f, a.g, a.b, _ref_score(i, a, weights, power_table))]
        full.append(opts)
        scores.append([o[3] for o in opts])
        allow.append(not keep)
        initial.append(len(opts) - 1 if keep else None)
    conflict = {}
    for x in range(len(picked)):
        for y in range(x + 1, len(picked)):
            key = (min(picked[x], picked[y]), max(picked[x], picked[y]))
            ii, ie = key in restrictions.intra, key in restrictions.inter
            if ii or ie:
                conflict[(x, y)] = np.array(
                    [[ref_options_collide(Assignment(*u[:3]), Assignment(*v[:3]), ii, ie, grid.n_p)
                      for v in full[y]] for u in full[x]],
                    dtype=bool,
                ).reshape(len(full[x]), len(full[y]))
    picks, _ = ref_solve_option_selection(
        scores, allow, conflict, initial=initial, node_budget=node_budget
    )
    out = dict(plan.assignments)
    for pos, i in enumerate(picked):
        sel = picks[pos]
        out[i] = Assignment.inactive() if sel is None else Assignment(*full[pos][sel][:3])
    return FrequencyPlan(out)


def ref_sanitize_warm_start(plan: FrequencyPlan, scenario: Scenario, restrictions) -> FrequencyPlan:
    """Reference warm-start repair: re-validate after every deactivation and
    deactivate the higher id of the first violation until none is left."""
    assignments = dict(plan.assignments)
    for beam in scenario.beams:
        if beam.id not in assignments:
            assignments[beam.id] = Assignment.inactive()
    while True:
        candidate = FrequencyPlan(assignments)
        violations = validate_plan(candidate, scenario.grid, restrictions, scenario.beams)
        if not violations:
            return candidate
        assignments[max(violations[0].beams)] = Assignment.inactive()


# Reference option-selection search: the numpy-mask depth-first search the
# bitset search in freqplan.solver must reproduce pick for pick, including
# node counting under a node budget.
def ref_solve_option_selection(
    scores: Sequence[Sequence[float]],
    allow_none: Sequence[bool],
    pair_conflict: Mapping[tuple[int, int], object],
    initial: Sequence[int | None] | None = None,
    node_budget: int = 0,
) -> tuple[list[int | None], float]:
    """Pick at most one option per group maximizing the score sum.

    ``scores[g]`` lists option scores for group g; groups with
    ``allow_none[g]`` may also select nothing (contribution 0), otherwise a
    selection is mandatory. ``pair_conflict[(g1, g2)]`` (g1 < g2) decides
    whether two concrete options collide; each entry is either a callable
    ``(opt1, opt2) -> bool`` or a precomputed boolean matrix indexed
    ``[opt1, opt2]``. Deterministic; with an unlimited budget, equivalent
    to solving the pairwise-constraint binary program exactly.

    ``initial`` seeds the incumbent with a known-feasible selection, which
    the result is then guaranteed to match or beat. ``node_budget`` > 0
    caps the search tree per connected component; a truncated search
    returns the best selection found so far (anytime behavior).

    The search is depth-first with forward checking over connected
    components of the group conflict graph, always branching on the group
    with the fewest surviving candidates; the node bound sums the best
    still-compatible score per remaining group.
    """
    n = len(scores)
    score_arr = [np.asarray(s, dtype=float) for s in scores]
    ranked: list[list[int]] = [
        sorted(range(len(scores[g])), key=lambda o: (-scores[g][o], o))
        for g in range(n)
    ]
    none_rank: list[int | None] = []
    for g in range(n):
        if allow_none[g]:
            pos = 0
            while pos < len(ranked[g]) and scores[g][ranked[g][pos]] > 0:
                pos += 1
            none_rank.append(pos)
        else:
            none_rank.append(None)

    # materialize conflict matrices once; callables are evaluated eagerly
    matrices: dict[tuple[int, int], np.ndarray] = {}
    for (g1, g2), conf in pair_conflict.items():
        if callable(conf):
            mat = np.zeros((len(scores[g1]), len(scores[g2])), dtype=bool)
            for u in range(len(scores[g1])):
                for v in range(len(scores[g2])):
                    mat[u, v] = conf(u, v)
        else:
            mat = np.asarray(conf, dtype=bool)
        matrices[(g1, g2)] = mat

    adj: list[set[int]] = [set() for _ in range(n)]
    for g1, g2 in matrices:
        adj[g1].add(g2)
        adj[g2].add(g1)

    def _conflict_row(g: int, h: int, opt: int) -> np.ndarray:
        """Options of group h incompatible with option opt of g."""
        if (g, h) in matrices:
            return matrices[(g, h)][opt, :]
        return matrices[(h, g)][:, opt]

    mask = [np.ones(len(scores[g]), dtype=bool) for g in range(n)]
    pick: list[int | None] = [None] * n
    infeasible = False

    def group_best(g: int) -> float:
        avail = score_arr[g][mask[g]]
        best = float(avail.max()) if avail.size else float("-inf")
        if allow_none[g]:
            best = max(best, 0.0)
        return best

    def candidates(g: int):
        """Still-compatible candidates in non-increasing gain order; None
        (when allowed) sits at its score-rank position."""
        emitted_none = False
        for rank_pos, opt in enumerate(ranked[g]):
            if none_rank[g] is not None and rank_pos >= none_rank[g] and not emitted_none:
                emitted_none = True
                yield None
            if mask[g][opt]:
                yield opt
        if none_rank[g] is not None and not emitted_none:
            yield None

    # connected components of the group conflict graph are independent
    comp_of = list(range(n))

    def find(x: int) -> int:
        while comp_of[x] != x:
            comp_of[x] = comp_of[comp_of[x]]
            x = comp_of[x]
        return x

    for g1, g2 in matrices:
        comp_of[find(g1)] = find(g2)
    components: dict[int, list[int]] = {}
    for g in range(n):
        components.setdefault(find(g), []).append(g)

    def solve_component(groups: list[int]) -> None:
        nonlocal infeasible
        best_total = float("-inf")
        best_pick: dict[int, int | None] | None = None
        if initial is not None:
            best_total = sum(
                float(score_arr[g][initial[g]]) for g in groups if initial[g] is not None
            )
            best_pick = {g: initial[g] for g in groups}
        chosen: dict[int, int | None] = {}
        remaining = set(groups)
        # incrementally maintained per-group data over `remaining`
        gb = {h: group_best(h) for h in groups}
        width = {
            h: int(mask[h].sum()) + (1 if allow_none[h] else 0) for h in groups
        }
        nodes = 0

        def search(total: float) -> None:
            nonlocal best_total, best_pick, nodes
            nodes += 1
            if node_budget and nodes > node_budget:
                return
            if not remaining:
                if total > best_total + REF_OPT_TOL:
                    best_total = total
                    best_pick = dict(chosen)
                return
            bound = total
            branch = None
            branch_width = None
            for h in sorted(remaining):
                if gb[h] == float("-inf"):
                    return  # mandatory group fully pruned: dead end
                bound += gb[h]
                if branch_width is None or width[h] < branch_width:
                    branch, branch_width = h, width[h]
            if bound <= best_total + REF_OPT_TOL:
                return
            g = branch
            assert g is not None
            rest = bound - total - gb[g]
            remaining.discard(g)
            for opt in candidates(g):
                if node_budget and nodes > node_budget:
                    break
                gain = float(score_arr[g][opt]) if opt is not None else 0.0
                if total + gain + rest <= best_total + REF_OPT_TOL:
                    break  # gains only shrink from here on
                chosen[g] = opt
                if opt is None:
                    search(total)
                else:
                    saved = {}
                    for h in adj[g]:
                        if h not in remaining:
                            continue
                        row = _conflict_row(g, h, opt)
                        if row.any():
                            saved[h] = (mask[h], gb[h], width[h])
                            mask[h] = mask[h] & ~row
                            gb[h] = group_best(h)
                            width[h] = int(mask[h].sum()) + (1 if allow_none[h] else 0)
                    search(total + gain)
                    for h, (m_old, gb_old, w_old) in saved.items():
                        mask[h], gb[h], width[h] = m_old, gb_old, w_old
                del chosen[g]
            remaining.add(g)

        search(0.0)
        if best_pick is None:
            infeasible = True
            return
        for g, opt in best_pick.items():
            pick[g] = opt

    for root in sorted(components, key=lambda r: min(components[r])):
        solve_component(sorted(components[root]))
        if infeasible:
            raise UnsupportedModelError("option selection has no feasible point")

    total = sum(
        float(score_arr[g][pick[g]]) for g in range(n) if pick[g] is not None
    )
    return pick, total

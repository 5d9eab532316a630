"""Shared builders and independent reference implementations for the tests.

Everything here is deliberately written without reusing package internals
beyond the public data types, so oracle comparisons stay independent. The
exceptions are the reference warm-start repair, which re-runs the public
``validate_plan`` exactly as the loop it preserves did, the adapter that
feeds dense conflict matrices to the package's option-selection search, the
MILP twin of the optimizer's subproblem, which reads its conflict kernels so
option indices stay the search's ranks, and the scalar scenario pipeline and
validator at the end, which keep the scalar geometry functions and reuse
helpers that define the array code's results.
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
    GenerationParams,
    ObjectiveWeights,
    RestrictionSets,
    Scenario,
    Solution,
    Violation,
    overlaps,
    validate_plan,
)
from freqplan.errors import DomainError, PlanStructureError, RoutingError, UnsupportedModelError
from freqplan.iterative import OptionSet, PlanArrays, _subproblem
from freqplan.milp import BINARY, EQ, LE, MilpModel
from freqplan.scenario import central_angle_deg, elevation_deg, routing_steps
from freqplan.solver import SolveStats, solve_option_selection

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


def pair_sets(restrictions: RestrictionSets) -> tuple[frozenset, frozenset]:
    """The intra and inter pairs of ``restrictions`` as frozensets of
    (smaller id, larger id) tuples, for the references that test pairs one
    at a time."""
    return tuple(frozenset(map(tuple, restrictions.pairs[kind].tolist())) for kind in ("intra", "inter"))


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
    intra, inter = pair_sets(restrictions)
    for i, j in intra:
        ai, aj = plan[i], plan[j]
        if ai.active and aj.active and ai.g == aj.g:
            if ref_intervals_overlap(ai.f, ai.b, aj.f, aj.b):
                return False
    for i, j in inter:
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
    intra, inter = pair_sets(restrictions)
    for i, j in intra | inter:
        if beam_id not in (i, j):
            continue
        other = j if i == beam_id else i
        if other in selected or not plan[other].active:
            continue
        if ref_options_collide(cand, plan[other], (i, j) in intra, (i, j) in inter, grid.n_p):
            return True
    return False


def _ref_score(beam_id, a, weights, power_table) -> float:
    b1, b2, b3, b4, b5 = weights.beta1, abs(weights.beta2), abs(weights.beta3), abs(weights.beta4), abs(weights.beta5)
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


def ref_keeps_as_is(beam, grid, plan, restrictions, selected) -> bool:
    """Reference keep-as-is rule: the beam's current assignment is active,
    inside its row and slot domain, at least min_slots wide, and collides
    with no active partner outside ``selected``."""
    a = plan[beam.id]
    row_lo, row_hi = beam.allowed_rows or (1, grid.n_fr * grid.n_p)
    slot_lo, slot_hi = beam.allowed_slots or (1, grid.n_bw)
    return (
        a.active
        and row_lo <= a.g <= row_hi
        and slot_lo <= a.f
        and a.f + a.b - 1 <= slot_hi
        and a.b >= beam.min_slots
        and not _ref_blocked(beam.id, a, grid, plan, restrictions, selected)
    )


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
        a = plan[i]
        keep = ref_keeps_as_is(beams[i], grid, plan, restrictions, selected)
        if keep:
            opts = opts + [(a.f, a.g, a.b, _ref_score(i, a, weights, power_table))]
        full.append(opts)
        scores.append([o[3] for o in opts])
        allow.append(not keep)
        initial.append(len(opts) - 1 if keep else None)
    conflict = {}
    intra, inter = pair_sets(restrictions)
    for x in range(len(picked)):
        for y in range(x + 1, len(picked)):
            key = (min(picked[x], picked[y]), max(picked[x], picked[y]))
            ii, ie = key in intra, key in inter
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


def narrowest_int(lo: int, hi: int) -> type:
    """The first of int16, int32 and int64 that holds every integer from
    ``lo`` to ``hi``: the dtype of derived pairs over ids in lo..hi, of
    positions in hi sorted ids (an insertion point may be hi), of partner
    CSR entries over hi / 2 ids and of routed satellite indices (-1 to
    n_s - 1)."""
    for dtype in (np.int16, np.int32, np.int64):
        if -2 ** (8 * np.dtype(dtype).itemsize - 1) <= lo and hi < 2 ** (8 * np.dtype(dtype).itemsize - 1):
            return dtype
    raise OverflowError(f"{lo}..{hi} does not fit int64")


def unknown_pair_error(kind: str, i: int, j: int) -> DomainError:
    """The error every restriction path raises for pair (i, j) of ``kind``
    when the scenario, or the plan, lacks one of its ids."""
    return DomainError(f"{kind} pair ({i}, {j}) references unknown beam")


def ref_partners(restrictions: RestrictionSets, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference RestrictionSets.partners: the CSR ``(indptr, indices)``
    over the sorted ``ids`` as one concatenation of the four (owner,
    partner) segments, intra (i, j), intra (j, i), inter (i, j) and inter
    (j, i), inter partners offset by n, stably sorted by owner, as
    narrowest_int(0, 2n). The first pair naming an id outside ``ids``,
    intra then inter, raises unknown_pair_error."""
    n, owners, partners = len(ids), [], []
    entry = narrowest_int(0, 2 * n)
    for offset, kind in ((0, "intra"), (n, "inter")):
        pairs = restrictions.pairs[kind]
        at = np.searchsorted(ids, pairs).astype(narrowest_int(0, n))
        found = (at < n) & (np.append(ids, 0)[at] == pairs)
        if not found.all():
            raise unknown_pair_error(kind, *pairs[~found.all(axis=1)][0].tolist())
        owners += [at[:, 0], at[:, 1]]
        partners += [at[:, 1].astype(np.int64) + offset, at[:, 0].astype(np.int64) + offset]
    owner, partner = np.concatenate(owners), np.concatenate(partners).astype(entry)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return indptr, partner[np.argsort(owner, kind="stable")]


def ref_greedy_warm_start(scenario: Scenario, restrictions) -> FrequencyPlan:
    """Reference first-fit: beams by descending demand, then id, each take
    the first block of exactly min_slots, scanning rows g and then first
    slots f upward, that collides with no beam placed before it."""
    grid = scenario.grid
    assignments = {b.id: Assignment.inactive() for b in scenario.beams}
    partners: dict[int, list[tuple[int, bool, bool]]] = {b.id: [] for b in scenario.beams}
    intra, inter = pair_sets(restrictions)
    for i, j in intra | inter:
        kind = ((i, j) in intra, (i, j) in inter)
        partners[i].append((j, *kind))
        partners[j].append((i, *kind))
    for beam in sorted(scenario.beams, key=lambda b: (-b.demand_bps, b.id)):
        row_lo, row_hi = beam.allowed_rows or (1, grid.n_fr * grid.n_p)
        slot_lo, slot_hi = beam.allowed_slots or (1, grid.n_bw)
        b = beam.min_slots
        candidates = (
            Assignment(f, g, b)
            for g in range(row_lo, row_hi + 1)
            for f in range(slot_lo, slot_hi - b + 2)
        )
        for cand in candidates:
            if not any(
                assignments[j].active
                and ref_options_collide(cand, assignments[j], is_intra, is_inter, grid.n_p)
                for j, is_intra, is_inter in partners[beam.id]
            ):
                assignments[beam.id] = cand
                break
    return FrequencyPlan(assignments)


def _bits(mask: int):
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ref_build_subproblem(option_sets: Sequence[OptionSet], plan: PlanArrays) -> MilpModel:
    """The MILP twin of the selection problem iterate_once searches over the
    candidates of beams of ``plan`` (iterative._subproblem): one binary
    variable per candidate in rank order, exactly-one per previously-active
    beam (keep-as-is ``x_orig`` included at its rank), linked activation for
    previously-inactive beams, and a pairwise constraint per colliding
    candidate pair across restricted beams. Option indices in ``conf_*``
    names are the search's ranks."""
    model = MilpModel()
    objective: list[tuple[float, str]] = []
    names: list[list[str]] = []
    for o in option_sets:
        i, at = o.beam_id, o.initial
        beam_names = [f"x_{i}_{f}_{g}_{b}" for f, g, b in zip(o.f.tolist(), o.g.tolist(), o.b.tolist())]
        if at is not None:
            beam_names[at] = f"x_orig_{i}"
        for name, value in zip(beam_names, o.score.tolist()):
            model.add_variable(name, 0, 1, BINARY)
            objective.append((value, name))
        if at is None:
            model.add_variable(f"a_{i}", 0, 1, BINARY)
            model.add_constraint(f"act_{i}", [(1.0, v) for v in beam_names] + [(-1.0, f"a_{i}")], EQ, 0.0)
        else:
            model.add_constraint(f"one_{i}", [(1.0, v) for v in beam_names], EQ, 1.0)
        names.append(beam_names)

    for (a, b), pair in _subproblem(option_sets, plan).items():
        i, j = option_sets[a].beam_id, option_sets[b].beam_id
        for u in range(len(names[a])):
            for v in _bits(pair.rows[u]):
                model.add_constraint(f"conf_{i}_{j}_{u}_{v}", [(1.0, names[a][u]), (1.0, names[b][v])], LE, 1.0)
    model.set_objective(objective)
    return model


def solve_with_scipy_milp(model):
    """Solve a MilpModel with scipy's HiGHS MILP solver, to optimality
    (``mip_rel_gap`` 0). A test-only oracle: scipy is no runtime dependency.

    Returns ``(status, objective)``: scipy's status (0 = optimal) and the
    maximized objective, or None when there is no solution.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    index = {v.name: k for k, v in enumerate(model.variables)}
    c = np.zeros(len(index))
    for coef, name in model.objective:
        c[index[name]] -= coef  # milp minimizes
    rows, cols, vals = [], [], []
    lb = np.full(len(model.constraints), -np.inf)
    ub = np.full(len(model.constraints), np.inf)
    for r, con in enumerate(model.constraints):
        for coef, name in con.terms:
            rows.append(r)
            cols.append(index[name])
            vals.append(coef)
        if con.sense in ("<=", "="):
            ub[r] = con.rhs
        if con.sense in (">=", "="):
            lb[r] = con.rhs
    constraints = []
    if model.constraints:
        a = coo_array((vals, (rows, cols)), shape=(len(model.constraints), len(index)))
        constraints.append(LinearConstraint(a.tocsr(), lb, ub))
    res = milp(
        c,
        constraints=constraints,
        integrality=[v.integrality != "continuous" for v in model.variables],
        bounds=Bounds([v.lower for v in model.variables], [v.upper for v in model.variables]),
        options={"mip_rel_gap": 0.0},
    )
    return res.status, (None if res.x is None else -float(res.fun))


def ref_check_solution(model, values: Mapping[str, float], tol: float = 1e-6) -> list[str]:
    """The checks the point ``values`` fails by more than ``tol``, in
    declaration order: ``bounds:<name>`` for a value outside its variable's
    bounds, else ``integrality:<name>`` for a fractional integer or binary
    value, then the name of each violated constraint. An independent
    feasibility oracle for solver points."""
    within = {"<=": lambda d: d <= tol, ">=": lambda d: d >= -tol, "=": lambda d: abs(d) <= tol}
    violated = []
    for name, lower, upper, integrality in model.variables:
        val = values[name]
        if not lower - tol <= val <= upper + tol:
            violated.append(f"bounds:{name}")
        elif integrality in ("integer", "binary") and abs(val - round(val)) > tol:
            violated.append(f"integrality:{name}")
    for name, terms, sense, rhs in model.constraints:
        if not within[sense](sum(c * values[v] for c, v in terms) - rhs):
            violated.append(name)
    return violated


# Reference branch-and-bound: the full-queue solver that freqplan's
# solve_exact must reproduce node for node. Every node re-propagates every
# constraint from a full queue and re-applies the incumbent cut after each
# pop; solve_exact's incremental worklist must reach the same fixpoints.
REF_FEAS_TOL = 1e-6


def ref_solve_exact(model, max_nodes: int = 0) -> Solution:
    n = len(model.variables)
    for var in model.variables:
        if var.integrality not in ("integer", "binary"):
            raise UnsupportedModelError(f"variable {var.name} is not integral")

    lb0 = [int(math.ceil(v.lower - REF_FEAS_TOL)) for v in model.variables]
    ub0 = [int(math.floor(v.upper + REF_FEAS_TOL)) for v in model.variables]

    index = {v.name: k for k, v in enumerate(model.variables)}
    cons = []
    var_cons: list[list[int]] = [[] for _ in range(n)]
    for con in model.constraints:
        idx = len(cons)
        terms = tuple((c, index[v]) for c, v in con.terms)
        cons.append((terms, con.sense, con.rhs))
        for _, v in terms:
            var_cons[v].append(idx)
    obj = [0.0] * n
    for coef, name in model.objective:
        obj[index[name]] += coef
    obj_terms = tuple((c, v) for v, c in enumerate(obj) if c != 0.0)
    integral_obj = all(float(c).is_integer() for c, _ in obj_terms)
    improve_step = 1.0 if integral_obj else REF_OPT_TOL

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
        if minact > rhs + REF_FEAS_TOL:
            return False
        for c, v in terms:
            if c > 0:
                hi = math.floor((rhs - minact + c * lb[v]) / c + REF_FEAS_TOL)
                if hi < ub[v]:
                    ub[v] = hi
                    if lb[v] > hi:
                        return False
                    changed.update(var_cons[v])
            else:
                lo = math.ceil((rhs - minact + c * ub[v]) / c - REF_FEAS_TOL)
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
            if sense in ("<=", "="):
                if not tighten(terms, rhs, lb, ub):
                    return False
            if sense in (">=", "="):
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
        if max_nodes and stats.nodes >= max_nodes:
            hit_limit = True
            break
        lb, ub, parent_bound = stack.pop()
        if parent_bound <= best_obj and best_values is not None:
            frontier_bound = max(frontier_bound, parent_bound)
            continue
        stats.nodes += 1
        changed.clear()
        if any(lb[v] > ub[v] for v in range(n)):
            continue
        if not propagate(lb, ub):
            continue
        bound = obj_upper(lb, ub)
        if best_values is not None and bound <= best_obj:
            frontier_bound = max(frontier_bound, bound)
            continue
        branch_var = next((v for v in range(n) if lb[v] < ub[v]), None)
        if branch_var is None:
            value = sum(c * lb[v] for c, v in obj_terms)
            if value > best_obj + REF_OPT_TOL:
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

    if hit_limit:
        frontier_bound = max(
            [frontier_bound] + [b for _, _, b in stack] + [best_obj]
        )
        if best_values is None:
            return Solution("limit-reached", {}, float("-inf"), frontier_bound, stats)
        values = {v.name: float(best_values[i]) for i, v in enumerate(model.variables)}
        return Solution("feasible", values, best_obj, frontier_bound, stats)
    if best_values is None:
        return Solution("infeasible", {}, float("-inf"), float("-inf"), stats)
    values = {v.name: float(best_values[i]) for i, v in enumerate(model.variables)}
    return Solution("optimal", values, best_obj, best_obj, stats)


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


class _MatrixConflicts:
    """A boolean conflict matrix in the conflict-object form
    solve_option_selection takes: each row, and each column, as an int
    whose bit v is set where the cell is."""

    def __init__(self, mat: np.ndarray):
        def packed(m):
            return [int.from_bytes(row.tobytes(), "little")
                    for row in np.packbits(m, axis=1, bitorder="little")]

        self.rows, self.cols, self.size = packed(mat), packed(mat.T), mat.size


def solve_dense_selection(
    scores: Sequence[Sequence[float]],
    allow_none: Sequence[bool],
    pair_conflict: Mapping[tuple[int, int], np.ndarray],
    initial: Sequence[int | None] | None = None,
    node_budget: int = 0,
) -> tuple[list[int | None], float]:
    """freqplan's solve_option_selection on the input form of
    ref_solve_option_selection: scores in any order and dense boolean
    conflict matrices indexed by option. Each group is ranked stably by
    descending score, the matrices are permuted to those ranks and wrapped
    as conflict objects, and the picks are mapped back to option indices.
    An adapter, not a reference: the search is the package's."""
    score_arr = [np.asarray(s, dtype=float) for s in scores]
    ranked = [np.argsort(-s, kind="stable") for s in score_arr]
    rank_of = [np.argsort(r) for r in ranked]
    conflicts = {
        (g1, g2): _MatrixConflicts(np.asarray(mat, dtype=bool)[np.ix_(ranked[g1], ranked[g2])])
        for (g1, g2), mat in pair_conflict.items()
    }
    if initial is not None:
        initial = [None if o is None else int(rank_of[g][o]) for g, o in enumerate(initial)]
    picks, total = solve_option_selection(
        [s[r] for s, r in zip(score_arr, ranked)],
        allow_none, conflicts, initial=initial, node_budget=node_budget,
    )
    return [None if r is None else int(ranked[g][r]) for g, r in enumerate(picks)], total


# --- scalar scenario pipeline and validator (the loops the array code replaced)


def ref_cluster_users(lats, lons, half_cone_deg: float) -> list[list[int]]:
    """Reference greedy clustering: each user joins the first cluster all of
    whose members lie within 2*half_cone_deg of it."""
    clusters: list[list[int]] = []
    for u in range(len(lats)):
        placed = False
        for members in clusters:
            if all(
                central_angle_deg(lats[u], lons[u], lats[v], lons[v]) <= 2.0 * half_cone_deg
                for v in members
            ):
                members.append(u)
                placed = True
                break
        if not placed:
            clusters.append([u])
    return clusters


def ref_generate_beams(
    seed: int, n_users: int, params: GenerationParams = GenerationParams(), half_cone_deg: float = 1.0
) -> tuple[Beam, ...]:
    """Reference for generate_synthetic's beams: the same draws (demands
    log-uniform over 10 to 500 Mbps), the scalar clustering, centroids and
    summed demands; every beam a user beam of one minimum slot."""
    rng = np.random.default_rng(seed)
    lat_lo, lat_hi = params.lat_band_deg
    lats = rng.uniform(lat_lo, lat_hi, size=n_users)
    lons = rng.uniform(0.0, 360.0, size=n_users)
    demands = np.exp(rng.uniform(math.log(10e6), math.log(500e6), size=n_users))
    clusters = ref_cluster_users(lats, lons, half_cone_deg)
    return tuple(
        Beam(
            id=idx,
            kind="user",
            lat=float(np.mean(lats[members])),
            lon=float(np.mean(lons[members])),
            demand_bps=float(np.sum(demands[members])),
            min_slots=1,
        )
        for idx, members in enumerate(clusters, start=1)
    )


def ref_route_beams(scenario: Scenario) -> dict[float, dict[int, int]]:
    """Reference routing: per step and beam, the nearest satellite above the
    minimum elevation, ties to the lower index."""
    geom = scenario.geometry
    routing: dict[float, dict[int, int]] = {}
    for t in routing_steps(scenario):
        at_t: dict[int, int] = {}
        sat_lons = [geom.subsatellite_lon(s, t) for s in range(geom.n_s)]
        for beam in scenario.beams:
            best: tuple[float, int] | None = None
            for s, slon in enumerate(sat_lons):
                ang = central_angle_deg(beam.lat, beam.lon, 0.0, slon)
                if elevation_deg(ang, geom.altitude_km) < scenario.min_elevation_deg:
                    continue
                if best is None or (ang, s) < best:
                    best = (ang, s)
            if best is None:
                raise RoutingError(beam.id, t)
            at_t[beam.id] = best[1]
        routing[t] = at_t
    return routing


def routing_as_dict(scenario: Scenario, sat: np.ndarray) -> dict[float, dict[int, int]]:
    """route_beams' (steps, beams) satellite array in ref_route_beams' form:
    {step: {beam id: satellite}}."""
    ids = scenario.beam_ids()
    return {t: dict(zip(ids, row)) for t, row in zip(routing_steps(scenario), sat.tolist(), strict=True)}


def ref_derive_intra_pairs(scenario: Scenario, routing) -> frozenset[tuple[int, int]]:
    """Reference: pairs of beams sharing a satellite at any routing step."""
    pairs: set[tuple[int, int]] = set()
    ids = scenario.beam_ids()
    for at_t in routing.values():
        by_sat: dict[int, list[int]] = {}
        for beam_id in ids:
            by_sat.setdefault(at_t[beam_id], []).append(beam_id)
        for members in by_sat.values():
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    i, j = members[a], members[b]
                    pairs.add((min(i, j), max(i, j)))
    return frozenset(pairs)


def ref_derive_inter_pairs(scenario: Scenario) -> frozenset[tuple[int, int]]:
    """Reference: pairs of beams whose centers are closer than
    interference_multiplier * half_cone_deg (strict)."""
    threshold = scenario.interference_multiplier * scenario.half_cone_deg
    pairs: set[tuple[int, int]] = set()
    beams = scenario.beams
    for a in range(len(beams)):
        for b in range(a + 1, len(beams)):
            sep = central_angle_deg(beams[a].lat, beams[a].lon, beams[b].lat, beams[b].lon)
            if sep < threshold:
                i, j = beams[a].id, beams[b].id
                pairs.add((min(i, j), max(i, j)))
    return frozenset(pairs)


def ref_validate_plan(
    plan: FrequencyPlan,
    grid: FrequencyGrid,
    restrictions: RestrictionSets,
    beams: Sequence[Beam],
) -> list[Violation]:
    """Reference validator: the per-beam checks, then every intra and inter
    pair in sorted order, one at a time. The first pair naming an id the
    plan lacks raises unknown_pair_error."""
    by_id = {b.id: b for b in beams}
    missing = [b for b in by_id if b not in plan.assignments]
    if missing:
        raise PlanStructureError(f"plan missing beams {sorted(missing)}")

    violations: list[Violation] = []
    for beam in beams:
        a = plan[beam.id]
        if not a.active:
            continue
        row_lo, row_hi = beam.row_range(grid)
        slot_lo, slot_hi = beam.slot_range(grid)
        if a.b < 1 or a.f < 1 or a.last_slot > grid.n_bw:
            violations.append(
                Violation(
                    "spectrum-bound",
                    (beam.id,),
                    f"slots [{a.f},{a.last_slot}] outside 1..{grid.n_bw}",
                )
            )
            continue
        if a.b < beam.min_slots:
            violations.append(
                Violation("below-min-slots", (beam.id,), f"b={a.b} < c={beam.min_slots}")
            )
        if not (row_lo <= a.g <= row_hi):
            violations.append(
                Violation("domain", (beam.id,), f"g={a.g} outside rows [{row_lo},{row_hi}]")
            )
        elif not (slot_lo <= a.f and a.last_slot <= slot_hi):
            violations.append(
                Violation(
                    "domain",
                    (beam.id,),
                    f"slots [{a.f},{a.last_slot}] outside allowed [{slot_lo},{slot_hi}]",
                )
            )

    def _both_active(kind: str, i: int, j: int) -> tuple[Assignment, Assignment] | None:
        if i not in plan.assignments or j not in plan.assignments:
            raise unknown_pair_error(kind, i, j)
        ai, aj = plan[i], plan[j]
        if ai.active and aj.active:
            return ai, aj
        return None

    intra, inter = pair_sets(restrictions)
    for i, j in sorted(intra):
        pair = _both_active("intra", i, j)
        if pair and pair[0].g == pair[1].g and overlaps(*pair):
            violations.append(
                Violation("intra-overlap", (i, j), f"row {pair[0].g} shared slots")
            )
    for i, j in sorted(inter):
        pair = _both_active("inter", i, j)
        if pair is None:
            continue
        # the polarization rule holds for any row, also one below 1
        mi = ref_decompose(pair[0].g, grid.n_p)[1]
        mj = ref_decompose(pair[1].g, grid.n_p)[1]
        if mi == mj and overlaps(*pair):
            violations.append(
                Violation("inter-overlap", (i, j), f"polarization {mi} shared slots")
            )
    return violations

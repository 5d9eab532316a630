"""Iteration-based optimizer: per-beam option enumeration and ranking,
conflict precomputation, exactly-one subproblems over a sampled set of
beams, warm-starting, and the convergence loop.

Each iteration fixes all but ``n_ch`` randomly chosen beams, enumerates
ranked (f, g, b) candidates for the chosen ones (discarding anything that
collides with a fixed active beam), and solves the resulting selection
problem exactly. A previously active, conflict-free beam always keeps its
current assignment as a candidate, which makes the objective non-decreasing
across iterations.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import or_
from typing import Mapping, Sequence

import numpy as np

from .milp import BINARY, EQ, LE, MilpModel
from .model import (
    Assignment,
    Beam,
    FrequencyGrid,
    FrequencyPlan,
    ObjectiveWeights,
    RestrictionSets,
    decompose_reuse,
    objective_value,
    overlaps,
    total_normalized_bandwidth,
    validate_plan,
)
from .scenario import Scenario
from .solver import solve_option_selection

OPT_TOL = 1e-9


@dataclass(frozen=True)
class BeamOption:
    """A candidate assignment with its objective contribution."""

    f: int
    g: int
    b: int
    score: float

    def as_assignment(self) -> Assignment:
        return Assignment(self.f, self.g, self.b)


class _OptionView(Sequence[BeamOption]):
    """Read-only sequence of BeamOption built from an OptionSet's arrays on
    access."""

    def __init__(self, oset: "OptionSet"):
        self._oset = oset

    def __len__(self) -> int:
        return len(self._oset.score)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(*index.indices(len(self))))
        o = self._oset
        return BeamOption(int(o.f[index]), int(o.g[index]), int(o.b[index]), float(o.score[index]))


@dataclass(frozen=True, eq=False)
class OptionSet:
    """Ranked candidates for one beam within an iteration.

    The candidates are parallel arrays ``f, g, b, score`` in rank order
    (score descending, then f, g, b); ``options`` reads them as BeamOption.
    ``original`` is the keep-as-is candidate, kept out of the arrays.
    """

    beam_id: int
    f: np.ndarray
    g: np.ndarray
    b: np.ndarray
    score: np.ndarray
    original: BeamOption | None = None

    @property
    def options(self) -> Sequence[BeamOption]:
        return _OptionView(self)

    @property
    def includes_original(self) -> bool:
        return self.original is not None

    def arrays(self, original_at: int | None) -> tuple[np.ndarray, ...]:
        """``f, g, b, score`` with the keep-as-is candidate (if any) inserted
        at position ``original_at``."""
        columns = (self.f, self.g, self.b, self.score)
        o = self.original
        if o is None:
            return columns
        return tuple(
            np.concatenate((c[:original_at], [v], c[original_at:]))
            for c, v in zip(columns, (o.f, o.g, o.b, o.score))
        )


@dataclass(frozen=True)
class IterationConfig:
    n_ch: int = 25
    top_per_bandwidth: int | None = 10  # None = unlimited
    convergence_window: int = 50
    seed: int = 0
    max_iterations: int = 100000
    # search-tree cap per subproblem component; 0 = exact (unbounded).
    # A truncated search still returns a selection at least as good as the
    # current plan, so monotonicity is unaffected.
    node_budget: int = 2000

    def __post_init__(self):
        if self.n_ch < 1:
            raise ValueError("n_ch must be >= 1")
        if self.top_per_bandwidth is not None and self.top_per_bandwidth < 1:
            raise ValueError("top_per_bandwidth must be >= 1 or None")
        if self.convergence_window < 1:
            raise ValueError("convergence_window must be >= 1")
        if self.node_budget < 0:
            raise ValueError("node_budget must be >= 0")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    objective: float
    normalized_bw: float
    beams_changed: int
    wall_ms: float


@dataclass
class IterationTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]


def export_trace(trace: IterationTrace, path, deterministic: bool = True) -> None:
    """Write `iteration, objective, normalized_bw, beams_changed, wall_ms`.

    With ``deterministic`` the wall_ms column is zeroed so repeated runs
    produce byte-identical files; real timings stay on the in-memory trace.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "normalized_bw", "beams_changed", "wall_ms"])
        for rec in trace.records:
            wall = 0 if deterministic else int(round(rec.wall_ms))
            writer.writerow(
                [rec.iteration, repr(rec.objective), repr(rec.normalized_bw), rec.beams_changed, wall]
            )


def score_option(
    beam: Beam,
    f: int,
    g: int,
    b: int,
    weights: ObjectiveWeights,
    power_table: Mapping[int, object] | None = None,
) -> float:
    """Contribution of one candidate: b1*b - |b2|*g - |b3|*f - |b4|*P(f,b)
    + |b5| (the activation reward is a constant here)."""
    b1, b2, b3, b4, b5 = weights.for_beam(beam.id)
    score = b1 * b - b2 * g - b3 * f + b5
    if b4 > 0:
        if power_table is None or beam.id not in power_table:
            raise ValueError(f"beta4 > 0 but no power table for beam {beam.id}")
        score -= b4 * power_table[beam.id].value(f, b)
    return score


class _Adjacency:
    """Restriction partners per beam, split by kind."""

    def __init__(self, restrictions: RestrictionSets):
        self.intra: dict[int, set[int]] = {}
        self.inter: dict[int, set[int]] = {}
        for i, j in restrictions.intra:
            self.intra.setdefault(i, set()).add(j)
            self.intra.setdefault(j, set()).add(i)
        for i, j in restrictions.inter:
            self.inter.setdefault(i, set()).add(j)
            self.inter.setdefault(j, set()).add(i)


def _rows_with_polarization(grid: FrequencyGrid) -> dict[int, list[int]]:
    rows: dict[int, list[int]] = {}
    for g in range(1, grid.n_rows + 1):
        rows.setdefault(decompose_reuse(g, grid.n_p)[1], []).append(g)
    return rows


def _blocked_prefix(
    beam: Beam,
    grid: FrequencyGrid,
    current_plan: FrequencyPlan,
    adjacency: _Adjacency,
    selected: set[int],
) -> np.ndarray:
    """Cumulative count of blocked cells per row; shape (n_rows, n_bw + 1).

    A cell is blocked when an active fixed partner occupies it under the
    relevant restriction semantics.
    """
    blocked = np.zeros((grid.n_rows, grid.n_bw), dtype=bool)
    rows_by_m = _rows_with_polarization(grid)
    for j in adjacency.intra.get(beam.id, ()):
        if j in selected:
            continue
        a = current_plan[j]
        if a.active:
            blocked[a.g - 1, a.f - 1 : a.f + a.b - 1] = True
    for j in adjacency.inter.get(beam.id, ()):
        if j in selected:
            continue
        a = current_plan[j]
        if a.active:
            m = decompose_reuse(a.g, grid.n_p)[1]
            for g in rows_by_m[m]:
                blocked[g - 1, a.f - 1 : a.f + a.b - 1] = True
    prefix = np.zeros((grid.n_rows, grid.n_bw + 1), dtype=np.int32)
    np.cumsum(blocked, axis=1, out=prefix[:, 1:])
    return prefix


def enumerate_options(
    beam: Beam,
    grid: FrequencyGrid,
    current_plan: FrequencyPlan,
    restrictions: RestrictionSets,
    selected_set: set[int],
    config: IterationConfig,
    weights: ObjectiveWeights,
    power_table: Mapping[int, object] | None = None,
    _adjacency: _Adjacency | None = None,
) -> OptionSet:
    """Ranked feasible candidates for one beam against the fixed complement.

    Keeps the top ``top_per_bandwidth`` candidates per slot count; ties go
    to lower f, then lower g. The current assignment becomes the keep-as-is
    candidate when it is active and conflict-free.
    """
    adjacency = _adjacency if _adjacency is not None else _Adjacency(restrictions)
    prefix = _blocked_prefix(beam, grid, current_plan, adjacency, selected_set)

    b1, b2, b3, b4, b5 = weights.for_beam(beam.id)
    ptab = power_table.get(beam.id) if (power_table and b4 > 0) else None
    if b4 > 0 and ptab is None:
        raise ValueError(f"beta4 > 0 but no power table for beam {beam.id}")
    row_lo, row_hi = beam.row_range(grid)
    slot_lo, slot_hi = beam.slot_range(grid)
    rows = np.arange(row_lo, row_hi + 1)
    widths = np.arange(beam.min_slots, slot_hi - slot_lo + 2)
    firsts = np.arange(slot_lo, slot_hi + 1)

    # free[g, b, f]: block [f, f+b-1] inside the slot range and unblocked on row g
    lasts = firsts[None, :] + widths[:, None] - 1
    row_prefix = prefix[rows - 1]
    blocked = row_prefix[:, np.minimum(lasts, slot_hi)] - row_prefix[:, firsts - 1][:, None, :]
    free = (blocked == 0) & (lasts <= slot_hi)
    if config.top_per_bandwidth is not None:
        # Scores fall weakly as g or f grows (|beta2|, |beta3| >= 0 and
        # rounding is monotone) and ties go to lower f, then g, so every free
        # block at a lower-or-equal (g, f) of the same width outranks this
        # one. Blocks with top_per_bandwidth or more such rivals never make
        # the cut; dropping them early leaves less to sort.
        free &= np.cumsum(np.cumsum(free, axis=0), axis=2) <= config.top_per_bandwidth
    g_idx, b_idx, f_idx = np.nonzero(free)
    g_vals, b_vals, f_vals = rows[g_idx], widths[b_idx], firsts[f_idx]
    scores = b1 * b_vals - b2 * g_vals - b3 * f_vals + b5
    if ptab is not None:
        power = np.array([ptab.value(1, int(b)) for b in widths])
        scores = scores - b4 * power[b_idx]

    if config.top_per_bandwidth is not None:
        order = np.lexsort((g_vals, f_vals, -scores, b_vals))
        b_sorted = b_vals[order]
        rank_in_b = np.arange(order.size) - np.searchsorted(b_sorted, b_sorted)
        keep = order[rank_in_b < config.top_per_bandwidth]
        f_vals, g_vals, b_vals, scores = f_vals[keep], g_vals[keep], b_vals[keep], scores[keep]
    order = np.lexsort((b_vals, g_vals, f_vals, -scores))

    original = None
    current = current_plan[beam.id]
    if current.active:
        g, f, b = current.g, current.f, current.b
        in_domain = (
            row_lo <= g <= row_hi
            and slot_lo <= f
            and f + b - 1 <= slot_hi
            and b >= beam.min_slots
        )
        conflict_free = (
            in_domain and prefix[g - 1, f + b - 1] - prefix[g - 1, f - 1] == 0
        )
        if conflict_free:
            original = BeamOption(f, g, b, score_option(beam, f, g, b, weights, power_table))
    return OptionSet(
        beam_id=beam.id,
        f=f_vals[order],
        g=g_vals[order],
        b=b_vals[order],
        score=scores[order],
        original=original,
    )


class OptionGroup:
    """The candidates of one beam, indexed for collision queries.

    For each row (intra partners) and each polarization (inter partners),
    two prefix-OR bitsets over slots are built on first use: the options
    whose first slot is <= s, and those whose last slot is >= s. The
    options of this group that collide with a block [first, last] on key k
    are then ``start_le[k][last] & end_ge[k][first]``.
    """

    def __init__(self, f: np.ndarray, g: np.ndarray, b: np.ndarray, grid: FrequencyGrid):
        self.n_bw = grid.n_bw
        pol = grid.n_p * -(-g // grid.n_p) - g  # decompose_reuse's m
        self._key_arrays = (g, pol)
        self.keys = (g.tolist(), pol.tolist())  # [by_pol][option]: row or polarization
        self.f = f.tolist()
        self.last = (f + b - 1).tolist()
        self._tables: dict[tuple[bool, int], tuple[list[int], list[int]]] = {}

    def __len__(self) -> int:
        return len(self.f)

    def colliding(self, by_pol: bool, key: int, first: int, last: int) -> int:
        """Bitset of this group's options whose row (or polarization, with
        ``by_pol``) is ``key`` and whose slots overlap [first, last]."""
        table = self._tables.get((by_pol, key))
        if table is None:
            starts = [0] * (self.n_bw + 2)
            ends = [0] * (self.n_bw + 2)
            for v in np.flatnonzero(self._key_arrays[by_pol] == key).tolist():
                starts[self.f[v]] |= 1 << v
                ends[self.last[v]] |= 1 << v
            start_le = list(accumulate(starts, or_))
            end_ge = list(accumulate(reversed(ends), or_))[::-1]
            table = self._tables[(by_pol, key)] = (start_le, end_ge)
        return table[0][last] & table[1][first]


class _ConflictRows(dict):
    """Conflict rows of one direction of a pair, computed on first access:
    ``rows[u]`` is the bitset of target options colliding with source
    option u."""

    def __init__(self, source: OptionGroup, target: OptionGroup, by_pol: bool):
        super().__init__()
        self.source, self.target, self.by_pol = source, target, by_pol

    def __missing__(self, u: int) -> int:
        src = self.source
        key = src.keys[self.by_pol][u]
        row = self[u] = self.target.colliding(self.by_pol, key, src.f[u], src.last[u])
        return row


class PairConflicts:
    """Collisions between the option groups of two restricted beams, in the
    conflict-object form ``solve_option_selection`` accepts: ``rows[u]``
    are the options of b colliding with option u of a, ``cols[v]`` those of
    a colliding with option v of b.

    Intra pairs collide on the same row, inter pairs (``by_pol``) on the
    same polarization.
    """

    def __init__(self, a: OptionGroup, b: OptionGroup, by_pol: bool):
        self.rows = _ConflictRows(a, b, by_pol)
        self.cols = _ConflictRows(b, a, by_pol)
        self.size = len(a) * len(b)  # cells of the equivalent dense matrix


def _bits(mask: int):
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _restricted_pairs(beam_ids: Sequence[int], restrictions: RestrictionSets):
    """(a, b, by_pol) for positions a < b of restricted beams. A row fixes
    the polarization, so a pair that is both intra and inter collides
    exactly as an inter pair."""
    for a in range(len(beam_ids)):
        for b in range(a + 1, len(beam_ids)):
            key = (min(beam_ids[a], beam_ids[b]), max(beam_ids[a], beam_ids[b]))
            if key in restrictions.inter:
                yield a, b, True
            elif key in restrictions.intra:
                yield a, b, False


def build_subproblem(
    option_sets: Sequence[OptionSet],
    restrictions: RestrictionSets,
    grid: FrequencyGrid,
) -> MilpModel:
    """Binary selection model: one variable per candidate, exactly-one per
    previously-active beam (keep-as-is included), linked activation for
    previously-inactive beams, and a pairwise constraint per colliding
    candidate pair across restricted beams."""
    model = MilpModel()
    objective: list[tuple[float, str]] = []
    names: list[list[str]] = []
    for oset in option_sets:
        i = oset.beam_id
        beam_names = []
        for opt in oset.options:
            name = f"x_{i}_{opt.f}_{opt.g}_{opt.b}"
            model.add_variable(name, 0, 1, BINARY)
            objective.append((opt.score, name))
            beam_names.append(name)
        if oset.includes_original:
            name = f"x_orig_{i}"
            model.add_variable(name, 0, 1, BINARY)
            assert oset.original is not None
            objective.append((oset.original.score, name))
            model.add_constraint(
                f"one_{i}", [(1.0, v) for v in beam_names] + [(1.0, name)], EQ, 1.0
            )
        else:
            model.add_variable(f"a_{i}", 0, 1, BINARY)
            model.add_constraint(
                f"act_{i}", [(1.0, v) for v in beam_names] + [(-1.0, f"a_{i}")], EQ, 0.0
            )
        names.append(beam_names + ([f"x_orig_{i}"] if oset.includes_original else []))

    groups = [
        OptionGroup(*oset.arrays(len(oset.score))[:3], grid) for oset in option_sets
    ]
    beam_ids = [oset.beam_id for oset in option_sets]
    for a, b, by_pol in _restricted_pairs(beam_ids, restrictions):
        i, j = beam_ids[a], beam_ids[b]
        pair = PairConflicts(groups[a], groups[b], by_pol)
        for u in range(len(groups[a])):
            for v in _bits(pair.rows[u]):
                model.add_constraint(
                    f"conf_{i}_{j}_{u}_{v}",
                    [(1.0, names[a][u]), (1.0, names[b][v])],
                    LE,
                    1.0,
                )
    model.set_objective(objective)
    return model


@dataclass
class IterationState:
    scenario: Scenario
    restrictions: RestrictionSets
    weights: ObjectiveWeights
    config: IterationConfig
    plan: FrequencyPlan
    power_table: Mapping[int, object] | None = None
    trace: IterationTrace = field(default_factory=IterationTrace)
    iteration: int = 0
    stall: int = 0
    _adjacency: _Adjacency | None = None

    def adjacency(self) -> _Adjacency:
        if self._adjacency is None:
            self._adjacency = _Adjacency(self.restrictions)
        return self._adjacency

    def objective(self) -> float:
        return objective_value(self.plan, self.weights, self.power_table)


def _sanitize_warm_start(
    plan: FrequencyPlan,
    scenario: Scenario,
    restrictions: RestrictionSets,
) -> FrequencyPlan:
    """Deactivate beams until the plan is valid (deterministic repair).

    Per-beam violations deactivate the beam itself; pairwise violations
    deactivate the higher-id beam. Deactivated beams come back through
    later iterations.
    """
    assignments = dict(plan.assignments)
    for beam in scenario.beams:
        if beam.id not in assignments:
            assignments[beam.id] = Assignment.inactive()
    # Deactivating a beam only removes the violations it takes part in, so
    # walking the violations of the start in validate_plan's order and
    # skipping those already resolved repairs like re-validating each time.
    start = FrequencyPlan(dict(assignments))
    for v in validate_plan(start, scenario.grid, restrictions, scenario.beams):
        if all(assignments[i].active for i in v.beams):
            assignments[max(v.beams)] = Assignment.inactive()
    return FrequencyPlan(assignments)


def iterate_once(state: IterationState, rng: np.random.Generator) -> IterationState:
    """Sample beams, re-optimize them exactly, and apply the selection."""
    started = time.perf_counter()
    scenario = state.scenario
    ids = sorted(scenario.beam_ids())
    n_pick = min(state.config.n_ch, len(ids))
    picked = sorted(int(x) for x in rng.choice(ids, size=n_pick, replace=False))
    selected = set(picked)

    beams = {b.id: b for b in scenario.beams}
    option_sets = [
        enumerate_options(
            beams[i],
            scenario.grid,
            state.plan,
            state.restrictions,
            selected,
            state.config,
            state.weights,
            state.power_table,
            _adjacency=state.adjacency(),
        )
        for i in picked
    ]

    # exact selection: same semantics as solving build_subproblem(). The
    # keep-as-is candidate goes in at its score rank (after every option
    # scoring at least as much), so option index equals rank in every group.
    columns: list[tuple[np.ndarray, ...]] = []
    initial: list[int | None] = []
    for oset in option_sets:
        at = None
        if oset.original is not None:
            at = int(np.count_nonzero(oset.score >= oset.original.score))
        columns.append(oset.arrays(at))
        initial.append(at)
    groups = [OptionGroup(f, g, b, scenario.grid) for f, g, b, _ in columns]
    pair_conflict = {
        (a, b): PairConflicts(groups[a], groups[b], by_pol)
        for a, b, by_pol in _restricted_pairs(picked, state.restrictions)
    }

    # the keep-as-is selection (x_orig where available) seeds the incumbent,
    # guaranteeing the applied selection never worsens the plan
    picks, _ = solve_option_selection(
        [score for *_, score in columns],
        [at is None for at in initial],
        pair_conflict,
        initial=initial,
        node_budget=state.config.node_budget,
    )

    assignments = dict(state.plan.assignments)
    changed = 0
    for pos, beam_id in enumerate(picked):
        old = assignments[beam_id]
        sel = picks[pos]
        if sel is None:
            new = Assignment.inactive()
        else:
            f, g, b, _ = columns[pos]
            new = Assignment(int(f[sel]), int(g[sel]), int(b[sel]))
        if new != old:
            changed += 1
        assignments[beam_id] = new

    new_plan = FrequencyPlan(assignments)
    new_state = replace(state, plan=new_plan, iteration=state.iteration + 1)
    new_state._adjacency = state._adjacency
    objective = new_state.objective()
    prev = state.trace.records[-1].objective if state.trace.records else state.objective()
    new_state.stall = 0 if objective > prev + OPT_TOL else state.stall + 1
    new_state.trace.records.append(
        TraceRecord(
            iteration=new_state.iteration,
            objective=objective,
            normalized_bw=total_normalized_bandwidth(
                new_plan, scenario.grid, scenario.geometry.n_s
            ),
            beams_changed=changed,
            wall_ms=(time.perf_counter() - started) * 1000.0,
        )
    )
    return new_state


def greedy_warm_start(scenario: Scenario, restrictions: RestrictionSets) -> FrequencyPlan:
    """First-fit baseline: beams in descending demand order each take the
    lowest (g, f) slot block of exactly min_slots that breaks nothing;
    beams with no fit stay inactive. Always valid."""
    grid = scenario.grid
    adjacency = _Adjacency(restrictions)
    assignments: dict[int, Assignment] = {
        b.id: Assignment.inactive() for b in scenario.beams
    }
    order = sorted(scenario.beams, key=lambda b: (-b.demand_bps, b.id))
    for beam in order:
        row_lo, row_hi = beam.row_range(grid)
        slot_lo, slot_hi = beam.slot_range(grid)
        b = beam.min_slots
        placed = None
        for g in range(row_lo, row_hi + 1):
            for f in range(slot_lo, slot_hi - b + 2):
                cand = Assignment(f, g, b)
                ok = True
                for j in adjacency.intra.get(beam.id, ()):
                    other = assignments[j]
                    if other.active and other.g == g and overlaps(cand, other):
                        ok = False
                        break
                if ok:
                    m = decompose_reuse(g, grid.n_p)[1]
                    for j in adjacency.inter.get(beam.id, ()):
                        other = assignments[j]
                        if (
                            other.active
                            and decompose_reuse(other.g, grid.n_p)[1] == m
                            and overlaps(cand, other)
                        ):
                            ok = False
                            break
                if ok:
                    placed = cand
                    break
            if placed:
                break
        if placed:
            assignments[beam.id] = placed
    return FrequencyPlan(assignments)


def optimize(
    scenario: Scenario,
    restrictions: RestrictionSets,
    weights: ObjectiveWeights,
    warm_start: FrequencyPlan | None = None,
    config: IterationConfig = IterationConfig(),
    power_table: Mapping[int, object] | None = None,
) -> tuple[FrequencyPlan, IterationTrace]:
    """Run iterations until the objective stalls for ``convergence_window``
    consecutive iterations (or ``max_iterations``). The returned plan has
    zero violations; the warm start need not be valid."""
    if warm_start is None:
        warm_start = greedy_warm_start(scenario, restrictions)
    plan = _sanitize_warm_start(warm_start, scenario, restrictions)
    state = IterationState(
        scenario=scenario,
        restrictions=restrictions,
        weights=weights,
        config=config,
        plan=plan,
        power_table=power_table,
    )
    rng = np.random.default_rng(config.seed)
    while state.iteration < config.max_iterations:
        state = iterate_once(state, rng)
        if state.stall >= config.convergence_window:
            break
    return state.plan, state.trace

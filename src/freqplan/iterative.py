"""Iteration-based optimizer: per-beam option enumeration and ranking,
conflict precomputation, exactly-one subproblems over a sampled set of
beams, warm-starting, and the convergence loop.

Each iteration fixes all but ``n_ch`` randomly chosen beams, enumerates
ranked (f, g, b) candidates for the chosen ones (discarding anything that
collides with a fixed active beam), and searches the resulting selection
problem. The search is exact only with ``node_budget=0``; under a positive
budget (2000 by default) a component's search stops after that many nodes
with the best selection it found. A previously active, conflict-free beam
always keeps its current assignment as a candidate, which makes the
objective non-decreasing across iterations either way.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, or_
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError
from .model import (
    Assignment,
    FrequencyGrid,
    FrequencyPlan,
    ObjectiveWeights,
    RestrictionSets,
    _plan_arrays,
    _polarization,
    beam_scores,
    check_plan_beams,
    objective_value,
    slot_capacity,
    validate_plan,
)
from .scenario import Scenario, _spans
from .solver import solve_option_selection

OPT_TOL = 1e-9


@dataclass(eq=False)
class OptionSet:
    """Ranked candidates for one beam within an iteration, indexed for
    collision queries.

    The candidates are parallel arrays ``f, g, b, score`` in rank order
    (score descending, then f, g, b), with the keep-as-is candidate inserted
    at its score rank ``initial`` (after every candidate scoring at least as
    much), or ``initial`` None when the beam has none; so option index equals
    rank. ``options`` lists the other candidates as (f, g, b, score).

    For each row (intra partners) and each polarization (inter partners),
    two prefix-OR bitsets over slots are built on first use: the options
    whose first slot is <= s, and those whose last slot is >= s. The options
    that collide with a block [first, last] on key k are then
    ``start_le[k][last] & end_ge[k][first]``.
    """

    beam_id: int
    f: np.ndarray
    g: np.ndarray
    b: np.ndarray
    score: np.ndarray
    grid: FrequencyGrid
    initial: int | None = None

    def __post_init__(self):
        pol = _polarization(self.g, self.grid.n_p)
        self._key_arrays = (self.g, pol)
        self.keys = (self.g.tolist(), pol.tolist())  # [by_pol][option]: row or polarization
        self.first = self.f.tolist()
        self.last = (self.f + self.b - 1).tolist()
        self._tables: dict[tuple[bool, int], tuple[list[int], list[int]]] = {}

    def __len__(self) -> int:
        return len(self.first)

    @property
    def options(self) -> list[tuple[int, int, int, float]]:
        rows = list(zip(self.f.tolist(), self.g.tolist(), self.b.tolist(), self.score.tolist()))
        if self.initial is not None:
            del rows[self.initial]
        return rows

    @property
    def includes_original(self) -> bool:
        return self.initial is not None

    def colliding(self, by_pol: bool, key: int, first: int, last: int) -> int:
        """Bitset of the options whose row (or polarization, with
        ``by_pol``) is ``key`` and whose slots overlap [first, last]."""
        table = self._tables.get((by_pol, key))
        if table is None:
            starts = [0] * (self.grid.n_bw + 2)
            ends = [0] * (self.grid.n_bw + 2)
            for v in np.flatnonzero(self._key_arrays[by_pol] == key).tolist():
                starts[self.first[v]] |= 1 << v
                ends[self.last[v]] |= 1 << v
            start_le = list(accumulate(starts, or_))
            end_ge = list(accumulate(reversed(ends), or_))[::-1]
            table = self._tables[(by_pol, key)] = (start_le, end_ge)
        return table[0][last] & table[1][first]


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
            raise DomainError("n_ch must be >= 1")
        if self.top_per_bandwidth is not None and self.top_per_bandwidth < 1:
            raise DomainError("top_per_bandwidth must be >= 1 or None")
        if self.convergence_window < 1:
            raise DomainError("convergence_window must be >= 1")
        if self.node_budget < 0:
            raise DomainError("node_budget must be >= 0")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.max_iterations < 0:
            raise DomainError("max_iterations must be >= 0")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    iteration: int
    objective: float
    normalized_bw: float
    beams_changed: int
    wall_ms: float


@dataclass
class IterationTrace:
    """Per-iteration records, and the valid plan the run started from."""

    records: list[TraceRecord] = field(default_factory=list)
    start: FrequencyPlan | None = None

    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]


def export_trace(trace: IterationTrace, path) -> None:
    """Write `iteration, objective, normalized_bw, beams_changed, wall_ms`.

    The wall_ms column is written as 0 so repeated runs produce
    byte-identical files; real timings stay on TraceRecord.wall_ms.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "normalized_bw", "beams_changed", "wall_ms"])
        for rec in trace.records:
            writer.writerow(
                [rec.iteration, repr(rec.objective), repr(rec.normalized_bw), rec.beams_changed, 0]
            )


class PlanArrays:
    """A run's plan, by position k in the scenario's beams sorted by id:
    ``beams[k]``, ``ids[k]``, ``state[k]`` its (active, f, g, b), all
    inactive unless ``plan`` is loaded, and ``selected[k]`` whether it is
    re-optimized.

    ``indptr``/``indices`` are the partners of each position in CSR form,
    an intra partner as its position j and an inter partner as n + j
    (RestrictionSets.partners, shared by every plan over the same ids).
    Partners mark a difference array of ``n_bw + 2`` cells per key (one key
    per row, then one per polarization; cell s is slot s): from cell
    ``first.ravel()[j]``, ``span.ravel()[j]`` cells, 0 unless the beam is
    active and not selected.
    """

    def __init__(self, scenario: Scenario, restrictions: RestrictionSets, plan: FrequencyPlan | None = None):
        self.grid = grid = scenario.grid
        self.beams = sorted(scenario.beams, key=lambda b: b.id)
        self.ids = np.array([b.id for b in self.beams], dtype=np.int64)
        n = len(self.ids)
        self.state = np.zeros((n, 4), dtype=np.int64)
        if plan is not None:
            check_plan_beams(plan, scenario.beams)
            self.state[:] = _plan_arrays(plan)[1]  # in id order, as self.ids
        self.indptr, self.indices = restrictions.partners(self.ids)
        self.selected = np.zeros(n, dtype=bool)
        self.first = np.zeros((2, n), dtype=np.int64)
        self.span = np.zeros((2, n), dtype=np.int64)
        self.row_pol = grid.n_rows + _polarization(np.arange(1, grid.n_rows + 1), grid.n_p)
        self._refresh(np.flatnonzero(self.state[:, 0]).tolist())  # the others stay 0

    def _refresh(self, ks) -> None:
        cells, n_rows, n_p = self.grid.n_bw + 2, self.grid.n_rows, self.grid.n_p
        for k in ks:
            active, f, g, b = self.state[k].tolist()
            if active and not self.selected[k]:
                self.first[:, k] = ((g - 1) * cells + f, (n_rows + _polarization(g, n_p)) * cells + f)
                self.span[:, k] = b
            else:
                self.first[:, k] = self.span[:, k] = 0

    def plan(self) -> FrequencyPlan:
        """The plan these arrays hold, in id order."""
        rows = zip(self.ids.tolist(), self.state.tolist())
        return FrequencyPlan({i: Assignment(f, g, b, bool(active)) for i, (active, f, g, b) in rows})

    def assign(self, k: int, row) -> None:
        """Set the (active, f, g, b) row of position k."""
        self.state[k] = row
        self._refresh([k])

    def select(self, ks: Sequence[int], on: bool) -> None:
        self.selected[ks] = on
        self._refresh(ks)


def _blocked_cells(plan: PlanArrays, k: int) -> np.ndarray:
    """blocked[g - 1, s]: whether slot s of row g is blocked; shape
    (n_rows, n_bw + 1), column 0 never blocked.

    A cell is blocked for plan.ids[k] when an active partner that is not
    selected occupies its slot on the same row (intra) or on a row of the
    same polarization (inter). The partners are gathered with one fancy
    index and marked by a difference-array scatter.
    """
    n_rows, cells = plan.grid.n_rows, plan.grid.n_bw + 2
    j = plan.indices[plan.indptr[k] : plan.indptr[k + 1]]
    first = plan.first.ravel()[j]
    size = (n_rows + plan.grid.n_p) * cells
    diff = np.bincount(first, minlength=size) - np.bincount(first + plan.span.ravel()[j], minlength=size)
    covered = diff.reshape(-1, cells)[:, :-1].cumsum(axis=1)  # per key; cell 0 is always 0
    return (covered[:n_rows] | covered[plan.row_pol]) > 0


def _free_runs(blocked: np.ndarray, rows: tuple[int, int], slots: tuple[int, int]) -> np.ndarray:
    """run[g, f]: how many cells from slot ``slots[0] + f`` of row
    ``rows[0] + g`` up to ``slots[1]`` are not ``blocked`` (see
    _blocked_cells) before the first blocked one, so a block of b slots from
    there is free iff b <= run[g, f]. ``rows`` and ``slots`` are inclusive
    ranges."""
    (row_lo, row_hi), (slot_lo, slot_hi) = rows, slots
    firsts = np.arange(slot_lo, slot_hi + 1)
    # per first slot: itself when blocked, else one past the last allowed slot
    stop = np.where(blocked[row_lo - 1 : row_hi, slot_lo : slot_hi + 1], firsts, slot_hi + 1)
    return np.minimum.accumulate(stop[:, ::-1], axis=1)[:, ::-1] - firsts


def enumerate_options(
    plan: PlanArrays,
    k: int,
    config: IterationConfig,
    weights: ObjectiveWeights,
    power_table: Mapping[int, object] | None = None,
) -> OptionSet:
    """Ranked feasible candidates for the beam at position ``k`` of ``plan``
    against the fixed complement: the active beams of ``plan`` that are not
    selected.

    Keeps the top ``top_per_bandwidth`` candidates per slot count; ties go
    to lower f, then lower g. The current assignment, when it is active and
    conflict-free, joins them as the keep-as-is candidate (OptionSet).

    Candidates come from each row's runs of free cells (_free_runs): a
    block of b slots from a cell is free iff b <= its run. Listed by
    (f, g, b), one stable sort by score puts them in rank order, and the cap
    keeps the first ``top_per_bandwidth`` of each width in it.
    """
    grid, beam = plan.grid, plan.beams[k]
    (row_lo, row_hi), (slot_lo, slot_hi) = ranges = beam.row_range(grid), beam.slot_range(grid)
    widths = np.arange(beam.min_slots, slot_hi - slot_lo + 2)
    run = _free_runs(_blocked_cells(plan, k), *ranges)
    table = power_table.get(beam.id) if power_table else None
    if table is not None and widths.size and widths[-1] > len(table.by_slots_dbw):
        table.value(1, int(widths[-1]))  # raises the table's range error
    power = None if table is None else table.by_slots_dbw[widths - 1]  # by width

    cap = config.top_per_bandwidth
    live = run.T >= beam.min_slots  # by first slot, then row
    if cap is not None:
        # Scores fall weakly as g or f grows (|beta2|, |beta3| >= 0 and
        # rounding is monotone) and ties go to lower f, so each free cell
        # before a cell in its run starts a free block of every width the
        # cell allows that outranks the cell's. A cell with cap of them never
        # makes the cut; it is the one whose run is cap shorter than the run
        # cap cells earlier.
        live[cap:] &= run.T[:-cap] != run.T[cap:] + cap
    f_idx, g_idx = np.nonzero(live)
    cell, b_idx = np.nonzero(run[g_idx, f_idx, None] >= widths)
    f_vals, g_vals, b_vals = f_idx[cell] + slot_lo, g_idx[cell] + row_lo, widths[b_idx]
    scores = weights.score(beam.id, f_vals, g_vals, b_vals, None if power is None else power[b_idx])

    # score descending, then f, g, b: within one width, the cap's order
    order = np.argsort(-scores, kind="stable")
    if cap is not None:
        ranked = b_idx[order]
        by_width = np.argsort(ranked, kind="stable")
        grouped = ranked[by_width]
        keep = np.empty(order.size, dtype=bool)
        keep[by_width] = np.arange(order.size) - np.searchsorted(grouped, grouped) < cap
        order = order[keep]
    columns = [f_vals[order], g_vals[order], b_vals[order], scores[order]]
    initial = None
    active, f, g, b = plan.state[k].tolist()
    if active:
        at = (g - row_lo, f - slot_lo)
        if all(0 <= i < n for i, n in zip(at, run.shape)) and beam.min_slots <= b <= run[at]:
            own = None if power is None else power[b - beam.min_slots]
            score = float(weights.score(beam.id, f, g, b, own))
            initial = int(np.count_nonzero(columns[3] >= score))  # after every tie
            columns = [np.concatenate((c[:initial], [v], c[initial:])) for c, v in zip(columns, (f, g, b, score))]
    return OptionSet(beam.id, *columns, grid, initial)


class _ConflictRows(dict):
    """Conflict rows of one direction of a pair, computed on first access:
    ``rows[u]`` is the bitset of target options colliding with source
    option u."""

    def __init__(self, source: OptionSet, target: OptionSet, by_pol: bool):
        super().__init__()
        self.source, self.target, self.by_pol = source, target, by_pol

    def __missing__(self, u: int) -> int:
        src = self.source
        key = src.keys[self.by_pol][u]
        row = self[u] = self.target.colliding(self.by_pol, key, src.first[u], src.last[u])
        return row


class PairConflicts:
    """Collisions between the candidates of two restricted beams, in the
    conflict-object form ``solve_option_selection`` accepts: ``rows[u]``
    are the options of b colliding with option u of a, ``cols[v]`` those of
    a colliding with option v of b.

    Intra pairs collide on the same row, inter pairs (``by_pol``) on the
    same polarization.
    """

    def __init__(self, a: OptionSet, b: OptionSet, by_pol: bool):
        self.rows = _ConflictRows(a, b, by_pol)
        self.cols = _ConflictRows(b, a, by_pol)
        self.size = len(a) * len(b)  # cells of the equivalent dense matrix


def _subproblem(option_sets: Sequence[OptionSet], plan: PlanArrays) -> dict[tuple[int, int], PairConflicts]:
    """The conflicts of the selection problem over the sampled beams'
    candidates, which iterate_once solves: the PairConflicts kernel of each
    restricted pair (a, b), a < b, of sample positions, from the partner CSR
    rows at the sampled ids' positions in ``plan.ids``. A row fixes the
    polarization, so a pair that is both intra and inter collides exactly
    as an inter pair."""
    n, m = len(plan.ids), len(option_sets)
    ks = np.searchsorted(plan.ids, [o.beam_id for o in option_sets])
    sample = np.full(2 * n, -1)  # sample position of each CSR entry's beam: j and n + j
    sample[ks] = sample[ks + n] = np.arange(m)
    lo, hi = plan.indptr[ks], plan.indptr[ks + 1]
    a = np.repeat(np.arange(m), hi - lo)  # per entry of those rows: its row's sample position
    entry = plan.indices[_spans(lo, hi - lo)]
    b = sample[entry]
    kind = np.zeros((m, m), dtype=np.int8)  # 1 intra, 2 inter (written last)
    for code, of_kind in ((1, entry < n), (2, entry >= n)):
        hit = of_kind & (a < b)
        kind[a[hit], b[hit]] = code
    a, b = np.nonzero(kind)
    return {
        (a, b): PairConflicts(option_sets[a], option_sets[b], by_pol)
        for a, b, by_pol in zip(a.tolist(), b.tolist(), (kind[a, b] == 2).tolist())
    }


class IterationState:
    """One optimizer run's state. The plan lives only in ``arrays`` (its
    PlanArrays), which ``trace.start`` copies; iterate_once keeps ``scores``
    (each beam's ObjectiveWeights.score, 0.0 when inactive, by position in
    the arrays) in step with it."""

    def __init__(
        self,
        scenario: Scenario,
        weights: ObjectiveWeights,
        config: IterationConfig,
        arrays: PlanArrays,
        power_table: Mapping[int, object] | None = None,
    ):
        self.weights, self.config, self.power_table = weights, config, power_table
        self.arrays = arrays
        self.trace = IterationTrace(start=arrays.plan())
        self.stall = 0
        self.capacity = slot_capacity(scenario.grid, scenario.geometry.n_s)
        self.scores = beam_scores(self.trace.start, weights, power_table)

    @property
    def plan(self) -> FrequencyPlan:
        """The plan ``arrays`` hold; read-only."""
        return self.arrays.plan()

    def objective(self) -> float:
        """objective_value of ``plan``: the cached scores summed in id order
        from left to right, as objective_value sums them."""
        return functools.reduce(add, self.scores, 0.0)


def sanitize_warm_start(
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
    """Sample beams, re-optimize them by a search capped at
    ``config.node_budget`` nodes per component (exact when it is 0), and
    apply the selection.

    Advances ``state`` in place by one iteration, appending one trace
    record, and returns it."""
    started = time.perf_counter()
    plan = state.arrays
    # positions ascend with the sorted ids, so this draws the beams that
    # rng.choice over the sorted ids would
    n = len(plan.ids)
    picked = sorted(rng.choice(n, size=min(state.config.n_ch, n), replace=False).tolist())

    plan.select(picked, True)
    try:
        option_sets = [
            enumerate_options(plan, k, state.config, state.weights, state.power_table)
            for k in picked
        ]
    finally:
        plan.select(picked, False)

    # capped selection search: exact when the node budget is 0 or no
    # component reaches it. The keep-as-is selection seeds the incumbent,
    # guaranteeing the applied selection never worsens the plan
    picks, _ = solve_option_selection(
        [o.score for o in option_sets],
        [o.initial is None for o in option_sets],
        _subproblem(option_sets, plan),
        initial=[o.initial for o in option_sets],
        node_budget=state.config.node_budget,
    )

    records = state.trace.records
    prev = records[-1].objective if records else objective_value(state.trace.start, state.weights, state.power_table)
    changed = 0
    for k, sel, o in zip(picked, picks, option_sets):
        row = [0, 0, 0, 0] if sel is None else [1, o.f[sel].item(), o.g[sel].item(), o.b[sel].item()]
        old = plan.state[k].tolist()  # an inactive row may keep stale f, g, b
        if old == row:
            continue
        changed += 1
        plan.assign(k, row)
        state.scores[k] = 0.0 if sel is None else o.score[sel].item()

    objective = state.objective()
    state.stall = 0 if objective > prev + OPT_TOL else state.stall + 1
    records.append(
        TraceRecord(
            iteration=len(records) + 1,
            objective=objective,
            normalized_bw=int(plan.state[:, 3] @ plan.state[:, 0]) / state.capacity,  # total_normalized_bandwidth
            beams_changed=changed,
            wall_ms=(time.perf_counter() - started) * 1000.0,
        )
    )
    return state


def _first_fit(scenario: Scenario, restrictions: RestrictionSets) -> PlanArrays:
    """greedy_warm_start's plan, as the PlanArrays it is placed in."""
    plan = PlanArrays(scenario, restrictions)
    grid, beams = plan.grid, plan.beams
    # positions ascend with the ids, so ties in demand go to the lower id
    for k in sorted(range(len(beams)), key=lambda k: (-beams[k].demand_bps, k)):
        beam = beams[k]
        (row_lo, _), (slot_lo, slot_hi) = ranges = beam.row_range(grid), beam.slot_range(grid)
        free = _free_runs(_blocked_cells(plan, k), *ranges) >= beam.min_slots
        if free.any():
            g, f = divmod(int(free.argmax()), slot_hi - slot_lo + 1)  # row-major: lowest g, then f
            plan.assign(k, (1, slot_lo + f, row_lo + g, beam.min_slots))
    return plan


def greedy_warm_start(scenario: Scenario, restrictions: RestrictionSets) -> FrequencyPlan:
    """First-fit baseline: beams in descending demand order each take the
    lowest (g, f) slot block of exactly min_slots that breaks nothing;
    beams with no fit stay inactive. Always valid."""
    return _first_fit(scenario, restrictions).plan()


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
    zero violations; a given warm start need not be valid and is repaired
    first, while the greedy one is valid by construction and iterated on in
    the arrays it was placed in. The trace's ``start`` is the plan the
    iterations began from."""
    arrays = (
        _first_fit(scenario, restrictions)
        if warm_start is None
        else PlanArrays(scenario, restrictions, sanitize_warm_start(warm_start, scenario, restrictions))
    )
    state = IterationState(scenario, weights, config, arrays, power_table)
    rng = np.random.default_rng(config.seed)
    while len(state.trace.records) < config.max_iterations:
        state = iterate_once(state, rng)
        if state.stall >= config.convergence_window:
            break
    return state.plan, state.trace

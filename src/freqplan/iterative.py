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
import functools
import time
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, or_
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError
from .milp import BINARY, EQ, LE, MilpModel
from .model import (
    Assignment,
    Beam,
    FrequencyGrid,
    FrequencyPlan,
    ObjectiveWeights,
    RestrictionSets,
    _plan_arrays,
    _polarization,
    beam_scores,
    objective_value,
    pair_positions,
    slot_capacity,
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


class _OptionView(Sequence[BeamOption]):
    """Read-only sequence of BeamOption built from an OptionSet's arrays on
    access."""

    def __init__(self, oset: "OptionSet"):
        self._oset = oset

    def __len__(self) -> int:
        return len(self._oset.score)

    def __getitem__(self, index):
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


def score_option(
    beam: Beam,
    f: int,
    g: int,
    b: int,
    weights: ObjectiveWeights,
    power_table: Mapping[int, object] | None = None,
) -> float:
    """Contribution of one candidate: ObjectiveWeights.score at its power
    P(f, b) from ``power_table``."""
    table = power_table.get(beam.id) if power_table else None
    return weights.score(beam.id, f, g, b, None if table is None else table.value(f, b))


class PlanArrays:
    """A plan as the iterative layer reads and updates it, by position in
    its sorted beam ids: ``state[k]`` is the (active, f, g, b) of ids[k]
    (model._plan_arrays) and ``selected[k]`` whether it is re-optimized.

    ``indptr``/``indices`` are the partners of each position in CSR form,
    an intra partner as its position j and an inter partner as n + j, built
    once per restriction sets and ids (RestrictionSets.partner_csr).
    Partners mark a difference array of ``n_bw + 2`` cells per key (one key
    per row, then one per polarization; cell s is slot s): from cell
    ``first.ravel()[j]``, ``span.ravel()[j]`` cells, 0 unless the beam is
    active and not selected.
    """

    def __init__(self, plan: FrequencyPlan, restrictions: RestrictionSets, grid: FrequencyGrid):
        self.grid = grid
        self.ids, self.state = _plan_arrays(plan)
        n = len(self.ids)
        self.at = dict(zip(self.ids.tolist(), range(n)))
        key = self.ids.tobytes()
        if restrictions.partner_csr is None or restrictions.partner_csr[0] != key:
            restrictions.partner_csr = (key, _partner_csr(self.ids, restrictions))
        self.indptr, self.indices = restrictions.partner_csr[1]
        self.selected = np.zeros(n, dtype=bool)
        self.first = np.zeros((2, n), dtype=np.int64)
        self.span = np.zeros((2, n), dtype=np.int64)
        self.row_pol = grid.n_rows + _polarization(np.arange(1, grid.n_rows + 1), grid.n_p)
        self._powers: dict[int, np.ndarray] = {}  # per-width power of each beam read so far
        self._refresh(np.flatnonzero(self.state[:n, 0]).tolist())  # the others stay 0

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
        rows = zip(self.ids.tolist(), self.state.tolist())  # drops the trailing inactive row
        return FrequencyPlan({i: Assignment(f, g, b, bool(active)) for i, (active, f, g, b) in rows})

    def assign(self, k: int, a: Assignment) -> None:
        self.state[k] = (a.active, a.f, a.g, a.b)
        self._refresh([k])

    def select(self, ks: Sequence[int], on: bool) -> None:
        self.selected[ks] = on
        self._refresh(ks)

    def powers(self, beam: Beam, table, widths: np.ndarray) -> np.ndarray:
        """``table.value`` of each of the beam's ``widths``, read once."""
        got = self._powers.get(beam.id)
        if got is None:
            got = self._powers[beam.id] = np.array([table.value(1, b) for b in widths.tolist()])
        return got


def _partner_csr(ids: np.ndarray, restrictions: RestrictionSets) -> tuple[np.ndarray, np.ndarray]:
    """PlanArrays' ``indptr``/``indices`` over the sorted plan ``ids``: the
    intra partners of each position, as their positions j, then its inter
    partners, as n + j. A pair id outside ``ids`` raises KeyError."""
    n, owners, partners = len(ids), [], []
    for offset, pairs in ((0, restrictions.pairs["intra"]), (n, restrictions.pairs["inter"])):
        at, found = pair_positions(ids, pairs)
        if not found.all():
            raise KeyError(int(pairs[~found][0]))
        owners += [at[:, 0], at[:, 1]]
        partners += [at[:, 1] + offset, at[:, 0] + offset]
    owner = np.concatenate(owners)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    indices = np.concatenate(partners)[np.argsort(owner, kind="stable")]
    indptr.flags.writeable = indices.flags.writeable = False  # shared by every PlanArrays over ids
    return indptr, indices


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
    beam: Beam,
    plan: PlanArrays,
    config: IterationConfig,
    weights: ObjectiveWeights,
    power_table: Mapping[int, object] | None = None,
) -> OptionSet:
    """Ranked feasible candidates for one beam against the fixed complement:
    the active beams of ``plan`` that are not selected.

    Keeps the top ``top_per_bandwidth`` candidates per slot count; ties go
    to lower f, then lower g. The current assignment becomes the keep-as-is
    candidate when it is active and conflict-free.

    Candidates come from each row's runs of free cells (_free_runs): a
    block of b slots from a cell is free iff b <= its run. Listed by
    (f, g, b), one stable sort by score puts them in rank order, and the cap
    keeps the first ``top_per_bandwidth`` of each width in it.
    """
    grid, k = plan.grid, plan.at[beam.id]
    (row_lo, row_hi), (slot_lo, slot_hi) = ranges = beam.row_range(grid), beam.slot_range(grid)
    widths = np.arange(beam.min_slots, slot_hi - slot_lo + 2)
    run = _free_runs(_blocked_cells(plan, k), *ranges)

    original = None
    active, f, g, b = plan.state[k].tolist()
    if active:
        at = (g - row_lo, f - slot_lo)
        if all(0 <= i < n for i, n in zip(at, run.shape)) and beam.min_slots <= b <= run[at]:
            original = BeamOption(f, g, b, score_option(beam, f, g, b, weights, power_table))

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
    table = power_table.get(beam.id) if power_table else None
    power = None if table is None else plan.powers(beam, table, widths)[b_idx]
    scores = weights.score(beam.id, f_vals, g_vals, b_vals, power)

    # score descending, then f, g, b: within one width, the cap's order
    order = np.argsort(-scores, kind="stable")
    if cap is not None:
        ranked = b_idx[order]
        by_width = np.argsort(ranked, kind="stable")
        grouped = ranked[by_width]
        keep = np.empty(order.size, dtype=bool)
        keep[by_width] = np.arange(order.size) - np.searchsorted(grouped, grouped) < cap
        order = order[keep]
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
        pol = _polarization(g, grid.n_p)
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
    """(a, b, by_pol) for positions a < b of restricted beams, in that
    order. A row fixes the polarization, so a pair that is both intra and
    inter collides exactly as an inter pair. The pairs whose first id is a
    given beam's are one searchsorted range of the sorted pair arrays."""
    ids = np.asarray(beam_ids, dtype=np.int64)
    n, order = len(ids), np.argsort(ids)
    kind = np.zeros((n, n), dtype=np.int8)  # 1 intra, 2 inter (written last)
    for code, pairs in ((1, restrictions.pairs["intra"]), (2, restrictions.pairs["inter"])):
        lo, hi = np.searchsorted(pairs[:, 0], ids), np.searchsorted(pairs[:, 0], ids, side="right")
        a = np.repeat(np.arange(n), hi - lo)  # per pair in those ranges: its first id's position
        second = pairs[np.arange(len(a)) + (hi - np.cumsum(hi - lo))[a], 1]
        b = order[np.minimum(np.searchsorted(ids, second, sorter=order), n - 1)]
        hit = ids[b] == second
        kind[np.minimum(a, b)[hit], np.maximum(a, b)[hit]] = code
    a, b = np.nonzero(kind)
    return zip(a.tolist(), b.tolist(), (kind[a, b] == 2).tolist())


def _subproblem(option_sets: Sequence[OptionSet], restrictions: RestrictionSets, grid: FrequencyGrid):
    """The selection problem over the sampled beams' candidates, which
    iterate_once solves and build_subproblem writes out: per beam the
    ``f, g, b, score`` arrays in rank order with the keep-as-is candidate
    inserted at its score rank (after every option scoring at least as
    much), so option index equals rank in every group; per beam that rank,
    or None; and the PairConflicts kernel of each restricted pair of
    positions."""
    columns: list[tuple[np.ndarray, ...]] = []
    initial: list[int | None] = []
    for oset in option_sets:
        column = (oset.f, oset.g, oset.b, oset.score)
        o, at = oset.original, None
        if o is not None:
            at = int(np.count_nonzero(oset.score >= o.score))
            column = tuple(
                np.concatenate((c[:at], [v], c[at:])) for c, v in zip(column, (o.f, o.g, o.b, o.score))
            )
        columns.append(column)
        initial.append(at)
    groups = [OptionGroup(f, g, b, grid) for f, g, b, _ in columns]
    pair_conflict = {
        (a, b): PairConflicts(groups[a], groups[b], by_pol)
        for a, b, by_pol in _restricted_pairs([o.beam_id for o in option_sets], restrictions)
    }
    return columns, initial, pair_conflict


def build_subproblem(
    option_sets: Sequence[OptionSet],
    restrictions: RestrictionSets,
    grid: FrequencyGrid,
) -> MilpModel:
    """Binary selection model: one variable per candidate in rank order,
    exactly-one per previously-active beam (keep-as-is ``x_orig`` included
    at its rank), linked activation for previously-inactive beams, and a
    pairwise constraint per colliding candidate pair across restricted
    beams. Option indices in ``conf_*`` names are the search's ranks."""
    model = MilpModel()
    objective: list[tuple[float, str]] = []
    names: list[list[str]] = []
    columns, initial, pair_conflict = _subproblem(option_sets, restrictions, grid)
    for oset, (f, g, b, score), at in zip(option_sets, columns, initial):
        i = oset.beam_id
        beam_names = [f"x_{i}_{fv}_{gv}_{bv}" for fv, gv, bv in zip(f.tolist(), g.tolist(), b.tolist())]
        if at is not None:
            beam_names[at] = f"x_orig_{i}"
        for name, value in zip(beam_names, score.tolist()):
            model.add_variable(name, 0, 1, BINARY)
            objective.append((value, name))
        if at is None:
            model.add_variable(f"a_{i}", 0, 1, BINARY)
            model.add_constraint(
                f"act_{i}", [(1.0, v) for v in beam_names] + [(-1.0, f"a_{i}")], EQ, 0.0
            )
        else:
            model.add_constraint(f"one_{i}", [(1.0, v) for v in beam_names], EQ, 1.0)
        names.append(beam_names)

    for (a, b), pair in pair_conflict.items():
        i, j = option_sets[a].beam_id, option_sets[b].beam_id
        for u in range(len(names[a])):
            for v in _bits(pair.rows[u]):
                model.add_constraint(
                    f"conf_{i}_{j}_{u}_{v}",
                    [(1.0, names[a][u]), (1.0, names[b][v])],
                    LE,
                    1.0,
                )
    model.set_objective(objective)
    return model


class IterationState:
    """One optimizer run's state. The plan lives only in ``arrays`` (its
    PlanArrays), built once from the plan given; iterate_once keeps
    ``scores`` (each beam's ObjectiveWeights.score, 0.0 when inactive, by
    position in the plan's sorted beam ids) and ``slots`` (the active slot
    total) in step with it."""

    def __init__(
        self,
        scenario: Scenario,
        restrictions: RestrictionSets,
        weights: ObjectiveWeights,
        config: IterationConfig,
        plan: FrequencyPlan,
        power_table: Mapping[int, object] | None = None,
    ):
        self.scenario, self.restrictions, self.weights = scenario, restrictions, weights
        self.config, self.power_table = config, power_table
        self.trace = IterationTrace()
        self.iteration = self.stall = 0
        self.beams = {b.id: b for b in scenario.beams}
        self.beam_ids = np.array(sorted(self.beams), dtype=np.int64)
        self.capacity = slot_capacity(scenario.grid, scenario.geometry.n_s)
        self.arrays = PlanArrays(plan, restrictions, scenario.grid)
        self.scores = beam_scores(plan, weights, power_table)
        self.slots = int(self.arrays.state[:, 3] @ self.arrays.state[:, 0])

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
    """Sample beams, re-optimize them exactly, and apply the selection.

    Advances ``state`` in place by one iteration, appending one trace
    record, and returns it."""
    started = time.perf_counter()
    plan = state.arrays
    n_pick = min(state.config.n_ch, len(state.beam_ids))
    picked = sorted(int(x) for x in rng.choice(state.beam_ids, size=n_pick, replace=False))
    positions = [plan.at[i] for i in picked]

    plan.select(positions, True)
    try:
        option_sets = [
            enumerate_options(state.beams[i], plan, state.config, state.weights, state.power_table)
            for i in picked
        ]
    finally:
        plan.select(positions, False)

    # exact selection: same semantics as solving build_subproblem()
    columns, initial, pair_conflict = _subproblem(option_sets, state.restrictions, plan.grid)

    # the keep-as-is selection (x_orig where available) seeds the incumbent,
    # guaranteeing the applied selection never worsens the plan
    picks, _ = solve_option_selection(
        [score for *_, score in columns],
        [at is None for at in initial],
        pair_conflict,
        initial=initial,
        node_budget=state.config.node_budget,
    )

    records = state.trace.records
    prev = records[-1].objective if records else objective_value(state.plan, state.weights, state.power_table)
    changed = 0
    for pos, (beam_id, k) in enumerate(zip(picked, positions)):
        sel = picks[pos]
        if sel is None:
            new = Assignment.inactive()
        else:
            f, g, b, _ = columns[pos]
            new = Assignment(int(f[sel]), int(g[sel]), int(b[sel]))
        old = plan.state[k].tolist()  # active, f, g, b: an inactive row may keep stale f, g, b
        if old == [new.active, new.f, new.g, new.b]:
            continue
        changed += 1
        plan.assign(k, new)
        state.slots += new.b * new.active - old[3] * old[0]
        state.scores[k] = (
            score_option(state.beams[beam_id], new.f, new.g, new.b, state.weights, state.power_table)
            if new.active
            else 0.0
        )

    state.iteration += 1
    objective = state.objective()
    state.stall = 0 if objective > prev + OPT_TOL else state.stall + 1
    state.trace.records.append(
        TraceRecord(
            iteration=state.iteration,
            objective=objective,
            normalized_bw=state.slots / state.capacity,  # total_normalized_bandwidth
            beams_changed=changed,
            wall_ms=(time.perf_counter() - started) * 1000.0,
        )
    )
    return state


def greedy_warm_start(scenario: Scenario, restrictions: RestrictionSets) -> FrequencyPlan:
    """First-fit baseline: beams in descending demand order each take the
    lowest (g, f) slot block of exactly min_slots that breaks nothing;
    beams with no fit stay inactive. Always valid."""
    grid = scenario.grid
    inactive = FrequencyPlan({b.id: Assignment.inactive() for b in scenario.beams})
    plan = PlanArrays(inactive, restrictions, grid)
    for beam in sorted(scenario.beams, key=lambda b: (-b.demand_bps, b.id)):
        k = plan.at[beam.id]
        (row_lo, _), (slot_lo, slot_hi) = ranges = beam.row_range(grid), beam.slot_range(grid)
        free = _free_runs(_blocked_cells(plan, k), *ranges) >= beam.min_slots
        if free.any():
            g, f = divmod(int(free.argmax()), slot_hi - slot_lo + 1)  # row-major: lowest g, then f
            plan.assign(k, Assignment(slot_lo + f, row_lo + g, beam.min_slots))
    return plan.plan()


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
    first, while the greedy one is valid by construction."""
    plan = (
        greedy_warm_start(scenario, restrictions)
        if warm_start is None
        else sanitize_warm_start(warm_start, scenario, restrictions)
    )
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

"""Domain types for frequency grids, beams, assignments and plans.

Indices are 1-based throughout: slots run over ``{1..n_bw}``, rows over
``{1..n_fr*n_p}``. A row combines a frequency reuse and a polarization;
``decompose_reuse`` maps between the two coordinate systems.
"""

from __future__ import annotations

import csv
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, PlanStructureError, UnsupportedConfigurationError


@dataclass(frozen=True)
class FrequencyGrid:
    """Dimensions of the assignment grid: n_fr*n_p rows by n_bw slot columns."""

    n_bw: int
    n_fr: int
    n_p: int
    slot_bandwidth_hz: float = 1.0

    def __post_init__(self):
        if self.n_bw < 1:
            raise DomainError(f"n_bw must be >= 1, got {self.n_bw}")
        if self.n_fr < 1:
            raise DomainError(f"n_fr must be >= 1, got {self.n_fr}")
        if self.n_p not in (1, 2):
            raise DomainError(f"n_p must be 1 or 2, got {self.n_p}")
        if self.slot_bandwidth_hz <= 0:
            raise DomainError("slot_bandwidth_hz must be positive")

    @property
    def n_rows(self) -> int:
        return self.n_fr * self.n_p


@dataclass(frozen=True)
class Beam:
    """One beam (user group or gateway) with its demand and variable domains.

    ``allowed_rows`` / ``allowed_slots`` are inclusive 1-based sub-ranges
    restricting the row choice and the slot span the beam may occupy.
    """

    id: int
    kind: str = "user"
    lat: float = 0.0
    lon: float = 0.0
    demand_bps: float = 0.0
    min_slots: int = 1
    allowed_rows: tuple[int, int] | None = None
    allowed_slots: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in ("user", "gateway"):
            raise DomainError(f"beam kind must be user|gateway, got {self.kind!r}")
        if self.min_slots < 1:
            raise DomainError("min_slots must be >= 1")

    def row_range(self, grid: FrequencyGrid) -> tuple[int, int]:
        return self._range("allowed_rows", grid.n_rows)

    def slot_range(self, grid: FrequencyGrid) -> tuple[int, int]:
        return self._range("allowed_slots", grid.n_bw)

    def _range(self, name: str, n: int) -> tuple[int, int]:
        span = getattr(self, name)
        if not span:
            return 1, n
        problem = range_problem(span, n)
        if problem:
            raise DomainError(f"beam {self.id}: {name} {span} {problem}")
        return span[0], span[1]


def range_problem(span: tuple[int, int], n: int) -> str | None:
    """What keeps the inclusive range ``span`` from lying within 1..n, or None."""
    if span[0] > span[1]:
        return "is reversed"
    if not (1 <= span[0] and span[1] <= n):
        return f"outside 1..{n}"
    return None


@dataclass(frozen=True)
class Assignment:
    """Per-beam decision triple (f, g, b) plus an activation flag.

    For inactive assignments f/g/b are ignored by every consumer.
    """

    f: int = 0
    g: int = 0
    b: int = 0
    active: bool = True

    @staticmethod
    def inactive() -> "Assignment":
        return Assignment(0, 0, 0, active=False)

    @property
    def last_slot(self) -> int:
        return self.f + self.b - 1


@dataclass(frozen=True)
class FrequencyPlan:
    """A total map beam id -> Assignment."""

    assignments: Mapping[int, Assignment]

    def __getitem__(self, beam_id: int) -> Assignment:
        return self.assignments[beam_id]

    def active_items(self) -> Iterable[tuple[int, Assignment]]:
        for beam_id in sorted(self.assignments):
            a = self.assignments[beam_id]
            if a.active:
                yield beam_id, a


@dataclass(frozen=True, eq=False)
class PairIndex:
    """One restriction kind as arrays: its distinct beam ids, sorted, and
    for each pair the positions of its two ids among them."""

    ids: np.ndarray  # (n_ids,)
    at: np.ndarray  # (n_pairs, 2)

    @staticmethod
    def of(pairs: frozenset[tuple[int, int]]) -> "PairIndex":
        flat = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
        ids, at = np.unique(flat, return_inverse=True)
        return PairIndex(ids, at.reshape(-1, 2))

    @functools.cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Partners as CSR arrays ``(indptr, indices)``: the partners of
        ids[k] are ids[indices[indptr[k]:indptr[k + 1]]]."""
        src = self.at.ravel()
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(len(self.ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=len(self.ids)), out=indptr[1:])
        return indptr, self.at[:, ::-1].ravel()[order]

    def csr_over(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``csr`` over positions in ``ids``, a sorted array holding every id
        of this kind (KeyError names the first one it lacks)."""
        indptr, indices = self.csr
        pos = np.searchsorted(ids, self.ids)
        known = (pos < len(ids)) & (np.append(ids, 0)[pos] == self.ids)
        if not known.all():
            raise KeyError(int(self.ids[~known][0]))
        counts = np.zeros(len(ids), dtype=np.int64)
        counts[pos] = np.diff(indptr)
        over = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=over[1:])
        return over, pos[indices]


@dataclass(frozen=True)
class RestrictionSets:
    """Unordered intra-group (handover) and inter-group (interference) pairs,
    each stored as (smaller id, larger id); a reflexive pair is rejected."""

    intra: frozenset[tuple[int, int]] = frozenset()
    inter: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        for name in ("intra", "inter"):
            pairs = getattr(self, name)
            if any(itertools.starmap(operator.ge, pairs)):  # derived sets are already in order
                for i, j in pairs:
                    if i == j:
                        raise DomainError(f"restriction pair ({i}, {i}) is reflexive")
                object.__setattr__(self, name, frozenset((i, j) if i < j else (j, i) for i, j in pairs))

    @staticmethod
    def of(
        intra: Iterable[tuple[int, int]] = (),
        inter: Iterable[tuple[int, int]] = (),
    ) -> "RestrictionSets":
        return RestrictionSets(frozenset(intra), frozenset(inter))

    def check_ids(self, beam_ids: Iterable[int]) -> None:
        known = set(beam_ids)
        for name, pairs in (("intra", self.intra), ("inter", self.inter)):
            for i, j in pairs:
                if i not in known or j not in known:
                    raise DomainError(f"{name} pair ({i}, {j}) references unknown beam")

    # Built on first use and kept with the (immutable) sets, so the warm
    # start, every iteration and validate_plan share one copy per kind.
    @functools.cached_property
    def intra_index(self) -> PairIndex:
        return PairIndex.of(self.intra)

    @functools.cached_property
    def inter_index(self) -> PairIndex:
        return PairIndex.of(self.inter)


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the linear objective; beta2..beta5 act through their
    absolute values. ``per_beam`` overrides individual weights by beam id."""

    beta1: float = 1.0
    beta2: float = 0.0
    beta3: float = 0.0
    beta4: float = 0.0
    beta5: float = 0.0
    per_beam: Mapping[int, Mapping[str, float]] = field(default_factory=dict)

    def for_beam(self, beam_id: int) -> tuple[float, float, float, float, float]:
        o = self.per_beam.get(beam_id, {})
        return (
            o.get("beta1", self.beta1),
            abs(o.get("beta2", self.beta2)),
            abs(o.get("beta3", self.beta3)),
            abs(o.get("beta4", self.beta4)),
            abs(o.get("beta5", self.beta5)),
        )

    def score(self, beam_id: int, f, g, b, power):
        """Objective term of beam ``beam_id`` at one active candidate, or at
        numpy arrays of candidates: b1*b - |b2|*g - |b3|*f + |b5| - |b4|*power.
        ``power`` is the candidate's P(f, b), read only when |b4| > 0."""
        b1, b2, b3, b4, b5 = self.for_beam(beam_id)
        score = b1 * b - b2 * g - b3 * f + b5
        if b4 > 0:
            if power is None:
                raise UnsupportedConfigurationError(
                    f"beta4 > 0 but no power table entry for beam {beam_id}"
                )
            score = score - b4 * power
        return score

    def uses_power(self) -> bool:
        if abs(self.beta4) > 0:
            return True
        return any(abs(o.get("beta4", 0.0)) > 0 for o in self.per_beam.values())


@dataclass(frozen=True)
class Violation:
    """One constraint violation found by validate_plan."""

    kind: str  # spectrum-bound | below-min-slots | domain | intra-overlap | inter-overlap
    beams: tuple[int, ...]
    detail: str = ""

    def __str__(self) -> str:
        ids = ",".join(str(b) for b in self.beams)
        return f"{self.kind}[{ids}] {self.detail}".rstrip()


def decompose_reuse(g: int, n_p: int) -> tuple[int, int]:
    """Split row index g into (reuse k, polarization m) with g = n_p*k - m."""
    if g < 1:
        raise DomainError(f"row index must be >= 1, got {g}")
    k = -(-g // n_p)  # ceil(g / n_p)
    m = n_p * k - g
    return k, m


def _polarization(g, n_p: int):
    """decompose_reuse's polarization m of row g (an int or an array), also
    for a row below 1, where decompose_reuse raises."""
    return n_p * -(-g // n_p) - g


def compose_reuse(k: int, m: int, n_p: int) -> int:
    """Inverse of decompose_reuse."""
    return n_p * k - m


def overlaps(a: Assignment, b: Assignment) -> bool:
    """True iff the slot intervals of two active assignments intersect."""
    return a.f <= b.last_slot and b.f <= a.last_slot


def reject_unknown_beams(plan: FrequencyPlan, beams: Sequence[Beam]) -> None:
    """Raise PlanStructureError when ``plan`` names a beam id that ``beams``
    lacks."""
    known = {b.id for b in beams}
    unknown = [b for b in plan.assignments if b not in known]
    if unknown:
        raise PlanStructureError(f"plan names unknown beams {sorted(unknown)}")


def validate_plan(
    plan: FrequencyPlan,
    grid: FrequencyGrid,
    restrictions: RestrictionSets,
    beams: Sequence[Beam],
) -> list[Violation]:
    """Check a plan against every restriction; returns all violations.

    Inactive beams are exempt from every check. An empty result means the
    plan is valid.
    """
    by_id = {b.id: b for b in beams}
    missing = [b for b in by_id if b not in plan.assignments]
    if missing:
        raise PlanStructureError(f"plan missing beams {sorted(missing)}")
    reject_unknown_beams(plan, beams)

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

    arrays = None
    for kind, pairs in (("intra-overlap", restrictions.intra), ("inter-overlap", restrictions.inter)):
        if len(pairs) >= _ARRAY_MIN_PAIRS:
            if arrays is None:
                arrays = _plan_arrays(plan)
            index = restrictions.intra_index if kind == "intra-overlap" else restrictions.inter_index
            pairs = _flagged_pairs(kind, index, *arrays, grid.n_p)
        for i, j in sorted(pairs):
            violation = _pair_violation(kind, i, j, plan, grid.n_p)
            if violation is not None:
                violations.append(violation)
    return violations


# Below this many pairs of a kind, validate_plan checks every pair one by
# one: numpy's fixed cost per call (tens of microseconds) exceeds the loop's.
_ARRAY_MIN_PAIRS = 256


def _pair_violation(kind: str, i: int, j: int, plan: FrequencyPlan, n_p: int) -> Violation | None:
    """The violation of restriction pair (i, j), if any: both beams active
    on the same row (intra) or polarization (inter) with intersecting slot
    intervals."""
    ai, aj = plan[i], plan[j]
    if not (ai.active and aj.active):
        return None
    if kind == "intra-overlap":
        if ai.g == aj.g and overlaps(ai, aj):
            return Violation(kind, (i, j), f"row {ai.g} shared slots")
        return None
    mi, mj = _polarization(ai.g, n_p), _polarization(aj.g, n_p)
    if mi == mj and overlaps(ai, aj):
        return Violation(kind, (i, j), f"polarization {mi} shared slots")
    return None


def _plan_arrays(plan: FrequencyPlan) -> tuple[np.ndarray, np.ndarray]:
    """Sorted beam ids and their (active, f, g, b) rows, plus a trailing
    inactive row for searchsorted positions past the last id."""
    ids = np.fromiter(plan.assignments, dtype=np.int64, count=len(plan.assignments))
    state = np.zeros((len(ids) + 1, 4), dtype=np.int64)
    state[:-1] = [(a.active, a.f, a.g, a.b) for a in plan.assignments.values()]
    order = np.argsort(ids)
    return ids[order], state[np.append(order, len(ids))]


def _flagged_pairs(
    kind: str, index: PairIndex, ids: np.ndarray, state: np.ndarray, n_p: int
) -> list[tuple[int, int]]:
    """The pairs on which _pair_violation reports or raises, found for all
    pairs at once: both beams active with the same row (intra) or
    polarization (inter) and intersecting slot intervals, or an id the plan
    lacks (KeyError)."""
    row = np.searchsorted(ids, index.ids)
    found = (row < len(ids)) & (np.append(ids, 0)[row] == index.ids)
    known = found[index.at].all(axis=1)
    active, f, g, b = np.moveaxis(state[row[index.at]], 2, 0)  # each (pairs, 2)
    both = known & active.all(axis=1)
    flagged = ~known
    if kind == "inter-overlap":
        g = _polarization(g, n_p)
    last = f + b - 1
    flagged |= both & (g[:, 0] == g[:, 1]) & (f[:, 0] <= last[:, 1]) & (f[:, 1] <= last[:, 0])
    return list(map(tuple, index.ids[index.at[flagged]].tolist()))


def slot_capacity(grid: FrequencyGrid, n_s: int) -> int:
    """Slots of the whole constellation, n_s * n_bw * n_fr * n_p."""
    if n_s < 1:
        raise DomainError(f"satellite count must be >= 1, got {n_s}")
    return n_s * grid.n_bw * grid.n_fr * grid.n_p


def total_normalized_bandwidth(plan: FrequencyPlan, grid: FrequencyGrid, n_s: int) -> float:
    """Sum of active slot counts over the constellation capacity
    n_s * n_bw * n_fr * n_p."""
    return sum(a.b for _, a in plan.active_items()) / slot_capacity(grid, n_s)


def beam_scores(
    plan: FrequencyPlan,
    weights: ObjectiveWeights,
    power_table: Mapping[int, "object"] | None = None,
) -> list[float]:
    """ObjectiveWeights.score of each beam of the plan in id order, 0.0 for
    an inactive one. ``power_table`` maps beam id to an object exposing
    ``value(f, b)`` and is required when any beta4 != 0."""
    score, tables, assignments = weights.score, power_table or {}, plan.assignments
    scores = []
    for beam_id in sorted(assignments):
        a = assignments[beam_id]
        if a.active:
            table = tables.get(beam_id)
            scores.append(score(beam_id, a.f, a.g, a.b, None if table is None else table.value(a.f, a.b)))
        else:
            scores.append(0.0)
    return scores


def objective_value(
    plan: FrequencyPlan,
    weights: ObjectiveWeights,
    power_table: Mapping[int, "object"] | None = None,
) -> float:
    """Sum of beam_scores from left to right. The partial sums start at
    +0.0 and so are never -0.0, which makes adding an inactive beam's 0.0
    leave them as they were: this is the sum over the active beams alone."""
    return functools.reduce(operator.add, beam_scores(plan, weights, power_table), 0.0)


PLAN_CSV_HEADER = ["beam_id", "active", "f", "g", "b"]


def save_plan_csv(plan: FrequencyPlan, path) -> None:
    """Write one `beam_id, active, f, g, b` record per beam."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PLAN_CSV_HEADER)
        for beam_id in sorted(plan.assignments):
            a = plan.assignments[beam_id]
            writer.writerow([beam_id, int(a.active), a.f, a.g, a.b])


def load_plan_csv(path) -> FrequencyPlan:
    """Read a plan written by save_plan_csv."""
    assignments: dict[int, Assignment] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != PLAN_CSV_HEADER:
            raise PlanStructureError(f"bad plan header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                beam_id, active, f, g, b = (int(x) for x in row)
            except ValueError as exc:
                raise PlanStructureError(f"line {lineno}: {exc}") from exc
            assignments[beam_id] = Assignment(f, g, b, active=bool(active))
    return FrequencyPlan(assignments)

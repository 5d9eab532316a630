"""Domain types for frequency grids, beams, assignments and plans.

Indices are 1-based throughout: slots run over ``{1..n_bw}``, rows over
``{1..n_fr*n_p}``. A row combines a frequency reuse and a polarization;
``decompose_reuse`` maps between the two coordinate systems.
"""

from __future__ import annotations

import csv
import functools
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


def canonical_pairs(pairs) -> np.ndarray:
    """``pairs`` as a sorted ``(n, 2)`` int64 array of distinct (smaller id,
    larger id) rows; a reflexive pair, or a non-empty ndarray of any other
    shape than ``(n, 2)``, raises DomainError. An ndarray that is already
    canonical, as derivation emits, passes one vectorized check; any other
    input takes one Python pass, cheaper than numpy's fixed costs on the few
    pairs of a scenario file or a list."""
    if isinstance(pairs, np.ndarray):
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise DomainError(f"restriction pairs must be an (n, 2) array, not {pairs.shape}")
        pairs = pairs.reshape(-1, 2)  # a view: the caller's array keeps its flags
        i, j = pairs.T
        if (i < j).all() and ((i[1:] > i[:-1]) | (i[1:] == i[:-1]) & (j[1:] > j[:-1])).all():
            return pairs.astype(np.int64, copy=False)
        pairs = pairs.tolist()
    canon = set()
    for i, j in pairs:
        if i == j:
            raise DomainError(f"restriction pair ({i}, {i}) is reflexive")
        canon.add((i, j) if i < j else (j, i))
    return np.array(sorted(canon), dtype=np.int64).reshape(-1, 2)


class RestrictionSets:
    """Unordered intra-group (handover) and inter-group (interference) pairs.

    ``pairs[kind]`` holds kind "intra" or "inter" as canonical_pairs: a
    sorted, read-only ``(n, 2)`` int64 array of (smaller id, larger id) rows.
    ``intra`` and ``inter`` are the same pairs as frozensets of tuples,
    built on first use for the readers that test pairs one at a time.
    """

    def __init__(self, intra: Iterable[tuple[int, int]] = (), inter: Iterable[tuple[int, int]] = ()):
        self.pairs = {"intra": canonical_pairs(intra), "inter": canonical_pairs(inter)}
        for pairs in self.pairs.values():
            pairs.flags.writeable = False

    @staticmethod
    def of(intra=(), inter=()) -> "RestrictionSets":
        """The same as the constructor."""
        return RestrictionSets(intra, inter)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RestrictionSets):
            return NotImplemented
        return all(np.array_equal(pairs, other.pairs[kind]) for kind, pairs in self.pairs.items())

    @functools.cached_property
    def intra(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.pairs["intra"].tolist()))

    @functools.cached_property
    def inter(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.pairs["inter"].tolist()))

    def check_ids(self, beam_ids: Iterable[int]) -> None:
        known = set(beam_ids)
        for kind, pairs in self.pairs.items():
            for i, j in pairs.tolist():
                if i not in known or j not in known:
                    raise DomainError(f"{kind} pair ({i}, {j}) references unknown beam")


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


def check_plan_beams(plan: FrequencyPlan, beams: Sequence[Beam], allow_missing: bool = False) -> None:
    """Raise PlanStructureError when ``plan`` omits a beam of ``beams``
    (unless ``allow_missing``) or names a beam id that ``beams`` lacks."""
    known = {b.id for b in beams}
    missing = sorted(known - plan.assignments.keys())
    if missing and not allow_missing:
        raise PlanStructureError(f"plan missing beams {missing}")
    unknown = sorted(plan.assignments.keys() - known)
    if unknown:
        raise PlanStructureError(f"plan names unknown beams {unknown}")


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
    check_plan_beams(plan, beams)
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
    for name, pairs in restrictions.pairs.items():
        kind = f"{name}-overlap"
        if len(pairs) >= _ARRAY_MIN_PAIRS:
            if arrays is None:
                arrays = _plan_arrays(plan)
            pairs = pairs[_flagged_pairs(kind, pairs, *arrays, grid.n_p)]
        for i, j in pairs.tolist():
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


def pair_positions(ids: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of each pair's two ids in the sorted ``ids`` (a missing one
    where it would be inserted) and whether each is there, both (n, 2). A
    column at a time: the sorted first column searches fastest alone. The
    positions are int32, half the memory of millions of pairs."""
    at = np.empty(pairs.shape, dtype=np.int32)
    for c in range(2):
        at[:, c] = np.searchsorted(ids, pairs[:, c])
    return at, (at < len(ids)) & (np.append(ids, 0)[at] == pairs)


def _flagged_pairs(kind: str, pairs: np.ndarray, ids: np.ndarray, state: np.ndarray, n_p: int) -> np.ndarray:
    """Mask of the pairs on which _pair_violation reports or raises, found
    for all pairs at once: both beams active with the same row (intra) or
    polarization (inter) and intersecting slot intervals, or an id the plan
    lacks (KeyError)."""
    at, found = pair_positions(ids, pairs)
    known = found.all(axis=1)
    active, f, g, b = np.moveaxis(state[at], 2, 0)  # each (pairs, 2)
    both = known & active.all(axis=1)
    if kind == "inter-overlap":
        g = _polarization(g, n_p)
    last = f + b - 1
    return ~known | both & (g[:, 0] == g[:, 1]) & (f[:, 0] <= last[:, 1]) & (f[:, 1] <= last[:, 0])


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

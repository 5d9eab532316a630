"""Domain types for frequency grids, beams, assignments and plans.

Indices are 1-based throughout: slots run over ``{1..n_bw}``, rows over
``{1..n_fr*n_p}``. A row combines a frequency reuse and a polarization;
``decompose_reuse`` splits a row into its reuse and polarization.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, PlanStructureError, UnsupportedConfigurationError


@dataclass(frozen=True, slots=True)
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
        check_positive_finite("slot_bandwidth_hz", self.slot_bandwidth_hz)

    @property
    def n_rows(self) -> int:
        return self.n_fr * self.n_p


@dataclass(frozen=True, slots=True)
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
        # a NaN demand would break the warm start's demand order
        if not 0 <= self.demand_bps < math.inf:
            raise DomainError(f"demand_bps must be >= 0 and finite, got {self.demand_bps}")

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


def check_positive_finite(name: str, value: float) -> None:
    """Raise DomainError unless ``value`` is positive and finite (NaN is not)."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


def range_problem(span: tuple[int, int], n: int) -> str | None:
    """What keeps the inclusive range ``span`` from lying within 1..n, or None."""
    if span[0] > span[1]:
        return "is reversed"
    if not (1 <= span[0] and span[1] <= n):
        return f"outside 1..{n}"
    return None


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def int_dtype(lo: int, hi: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds every integer from
    ``lo`` to ``hi``, the type of set-up index data: pair ids, positions in
    n sorted ids (0 to n, an insertion point may be n) and partner CSR
    entries (0 to 2n, an inter partner is n + j)."""
    return np.dtype(next(t for t in (np.int16, np.int32, np.int64) if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max))


def pair_ids(ids: Iterable[int]) -> np.ndarray:
    """The beam ``ids`` as an array in the dtype of derived pairs over them,
    int_dtype of the ids: millions of pairs over a few thousand generated
    ids take 4 bytes a pair."""
    ids = np.asarray(ids, dtype=np.int64)
    return ids.astype(int_dtype(ids.min(initial=0), ids.max(initial=0)))


def canonical_pairs(pairs) -> np.ndarray:
    """``pairs`` as a sorted ``(n, 2)`` array of distinct (smaller id, larger
    id) rows; a reflexive pair, a non-integer id (an integer-valued float is
    one), an id outside int64, or a non-empty ndarray of any other shape
    than ``(n, 2)``, raises DomainError. A signed-integer ndarray keeps its
    dtype (derivation emits that of pair_ids), any other input is int64. A
    signed-integer ndarray that is already canonical, as derivation emits,
    passes one vectorized check, _BLOCK_PAIRS rows at a time; one that is
    not is canonicalized in numpy (_canonicalized). Any other input takes
    one Python pass, cheaper than numpy's fixed costs on the few pairs of a
    list (a scenario file hands over its pairs as one int64 array), into
    one int64 array that owns its data: no view keeps a temporary alive."""
    if isinstance(pairs, np.ndarray):
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise DomainError(f"restriction pairs must be an (n, 2) array, not {pairs.shape}")
        pairs = pairs.reshape(-1, 2)  # a view: the caller's array keeps its flags
        if np.issubdtype(pairs.dtype, np.signedinteger):
            return pairs if _is_canonical(pairs) else _canonicalized(pairs)
        pairs = pairs.tolist()
    canon = set()
    for i, j in pairs:
        if i == j:
            raise DomainError(f"restriction pair ({i}, {i}) is reflexive")
        canon.add((i, j) if i < j else (j, i))
    rows = sorted(canon)
    out = np.array(rows) if rows else np.empty((0, 2), dtype=np.int64)
    if out.dtype.kind != "i":  # a float id, or one past int64
        int64 = np.iinfo(np.int64)
        for i, j in rows:
            if i % 1 or j % 1:  # a fraction, an infinity or NaN; a cast would truncate it
                raise DomainError(f"restriction pair ({i}, {j}) has a non-integer id")
            if not int64.min <= i < j <= int64.max:  # a cast would raise OverflowError
                raise DomainError(f"restriction pair ({i}, {j}) has an id outside int64")
        out = np.array(rows, dtype=np.int64)
    return out.astype(np.int64, copy=False)


def _is_canonical(pairs: np.ndarray) -> bool:
    """Whether the (n, 2) integer ``pairs`` are rows (smaller id, larger id)
    in strictly ascending order. Each block of _BLOCK_PAIRS rows is checked
    with the next block's first row, so the order across a block edge is
    checked too, and the temporaries stay one block's."""
    for lo in range(0, len(pairs), _BLOCK_PAIRS):
        i, j = pairs[lo:lo + _BLOCK_PAIRS + 1].T
        if not ((i < j).all() and ((i[1:] > i[:-1]) | (i[1:] == i[:-1]) & (j[1:] > j[:-1])).all()):
            return False
    return True


def _canonicalized(pairs: np.ndarray) -> np.ndarray:
    """canonical_pairs of the (n, 2) signed-integer ``pairs`` in their dtype,
    as its Python pass gives them: each row ordered, the first reflexive row
    in input order raising its DomainError, the rows sorted and repeats
    dropped."""
    i, j = pairs.T
    reflexive = i == j
    if reflexive.any():
        i = i[reflexive.argmax()].item()
        raise DomainError(f"restriction pair ({i}, {i}) is reflexive")
    first, second = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((second, first))
    first, second = first[order], second[order]
    new = np.ones(len(first), dtype=bool)
    new[1:] = (first[1:] != first[:-1]) | (second[1:] != second[:-1])
    return np.column_stack((first[new], second[new]))


class RestrictionSets:
    """Unordered intra-group (handover) and inter-group (interference) pairs.

    ``pairs[kind]`` holds kind "intra" or "inter" as canonical_pairs: a
    sorted, read-only ``(n, 2)`` array of (smaller id, larger id) rows, in
    pair_ids' dtype as derived (int16 over ids that fit in it, 4 bytes a
    pair), int64 from a list or a scenario file.
    ``partners(ids)`` gives the same pairs as a partner CSR over a plan's
    sorted beam ids.
    """

    __slots__ = ("pairs", "_csr")

    def __init__(self, intra: Iterable[tuple[int, int]] = (), inter: Iterable[tuple[int, int]] = ()):
        self.pairs = {"intra": canonical_pairs(intra), "inter": canonical_pairs(inter)}
        for pairs in self.pairs.values():
            pairs.flags.writeable = False
        self._csr: tuple[bytes, tuple[np.ndarray, np.ndarray]] | None = None  # the last partners()

    @staticmethod
    def of(intra=(), inter=()) -> "RestrictionSets":
        """The same as the constructor."""
        return RestrictionSets(intra, inter)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RestrictionSets):
            return NotImplemented
        return all(np.array_equal(pairs, other.pairs[kind]) for kind, pairs in self.pairs.items())

    def partners(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The partners of each position of the sorted, distinct int64
        ``ids`` in read-only CSR form ``(indptr, indices)``: its intra
        partners, as their positions j, then its inter partners, as n + j.
        ``indptr`` is int64 and ``indices`` int_dtype(0, 2n), so int16 up to
        16,383 ids. The last CSR built is returned again for the same ids,
        so every plan over them shares one. A pair naming an id outside
        ``ids`` raises check_ids' DomainError (_position_blocks).

        Within a kind, an owner's partners from its (owner, larger) pairs
        come before those from its (smaller, owner) pairs, each in pair
        order. The CSR is a counting placement (Gustavson, ACM TOMS 4(3),
        1978) over blocks of _BLOCK_PAIRS pairs, so its temporaries stay
        bounded: pass 1 counts each position's partners in each of the four
        segments, pass 2 writes each block at its owners' next free slots.
        """
        key = ids.tobytes()
        if self._csr is not None and self._csr[0] == key:
            return self._csr[1]
        n = len(ids)
        # counts[2 * kind + column]: each position's partners as that column
        counts = np.zeros((4, n), dtype=np.int64)
        for k, (kind, pairs) in enumerate(self.pairs.items()):
            for at in _position_blocks(kind, ids, pairs):
                for c in (0, 1):
                    counts[2 * k + c] += np.bincount(at[:, c], minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts.sum(axis=0), out=indptr[1:])
        free = indptr[:-1] + np.cumsum(counts, axis=0) - counts  # each segment's next slot
        indices = np.empty(indptr[-1], dtype=int_dtype(0, 2 * n))
        # owners of 16 bits or fewer take numpy's radix sort
        small = np.min_scalar_type(max(n - 1, 0))
        for k, (kind, pairs) in enumerate(self.pairs.items()):
            for at in _position_blocks(kind, ids, pairs):
                for c in (0, 1):
                    owner = at[:, c]
                    # in the CSR's type: positions' + n may pass theirs
                    partner = np.add(at[:, 1 - c], k * n, dtype=indices.dtype)
                    if c:  # (smaller, owner) pairs come sorted by the smaller id
                        order = np.argsort(owner.astype(small), kind="stable")
                        owner, partner = owner[order], partner[order]
                        del order  # before the placement's temporaries
                    # by owner, an entry goes to its owner's next free slot
                    # plus its offset from the owner's first entry here
                    per_owner = np.bincount(owner, minlength=n)
                    start = free[2 * k + c] - np.cumsum(per_owner) + per_owner
                    indices[np.arange(len(owner)) + start[owner]] = partner
                    free[2 * k + c] += per_owner
        indptr.flags.writeable = indices.flags.writeable = False
        self._csr = (key, (indptr, indices))
        return indptr, indices

    def check_ids(self, beam_ids: Iterable[int]) -> None:
        """Raise DomainError on the first pair, intra then inter, that names
        an id outside ``beam_ids`` (_position_blocks). A kind of fewer than
        _ARRAY_MIN_PAIRS pairs whose ids are all known skips the sorted ids."""
        known = set(beam_ids)
        ids = None
        for kind, pairs in self.pairs.items():
            if len(pairs) < _ARRAY_MIN_PAIRS and known.issuperset(pairs.ravel().tolist()):
                continue
            if ids is None:
                ids = np.sort(np.fromiter(known, dtype=np.int64, count=len(known)))
            for _ in _position_blocks(kind, ids, pairs):
                pass


@dataclass(frozen=True, slots=True)
class ObjectiveWeights:
    """Weights of the linear objective; beta2..beta5 act through their
    absolute values."""

    beta1: float = 1.0
    beta2: float = 0.0
    beta3: float = 0.0
    beta4: float = 0.0
    beta5: float = 0.0

    def __post_init__(self) -> None:
        # a NaN weight compares false with every score, so no plan would ever
        # change; an infinite one has no finite objective
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value}")

    def coefficients(self) -> tuple[float, float, float, float, float]:
        """(beta1, |beta2|, |beta3|, |beta4|, |beta5|)."""
        return self.beta1, abs(self.beta2), abs(self.beta3), abs(self.beta4), abs(self.beta5)

    def score(self, beam_id: int, f, g, b, power):
        """Objective term of beam ``beam_id`` at one active candidate, or at
        numpy arrays of candidates: b1*b - |b2|*g - |b3|*f + |b5| - |b4|*power.
        ``power`` is the candidate's P(f, b), read only when |b4| > 0."""
        b1, b2, b3, b4, b5 = self.coefficients()
        score = b1 * b - b2 * g - b3 * f + b5
        if b4 > 0:
            if power is None:
                raise UnsupportedConfigurationError(
                    f"beta4 > 0 but no power table entry for beam {beam_id}"
                )
            score = score - b4 * power
        return score

    def uses_power(self) -> bool:
        return abs(self.beta4) > 0


@dataclass(frozen=True, slots=True)
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
    return -(-g // n_p), _polarization(g, n_p)  # k = ceil(g / n_p)


def _polarization(g, n_p: int):
    """decompose_reuse's polarization m of row g (an int or an array), also
    for a row below 1, where decompose_reuse raises."""
    return n_p * -(-g // n_p) - g


def overlaps(a: Assignment, b: Assignment) -> bool:
    """True iff the slot intervals of two active assignments intersect."""
    return a.f <= b.last_slot and b.f <= a.last_slot


def check_plan_beams(plan: FrequencyPlan, beams: Sequence[Beam]) -> None:
    """Raise PlanStructureError when ``plan`` omits a beam of ``beams`` or
    names a beam id that ``beams`` lacks."""
    known = {b.id for b in beams}
    missing = sorted(known - plan.assignments.keys())
    if missing:
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
    intervals; check_ids' DomainError when the plan lacks i or j."""
    ai, aj = plan.assignments.get(i), plan.assignments.get(j)
    if ai is None or aj is None:
        raise DomainError(_UNKNOWN_PAIR.format(kind.removesuffix("-overlap"), i, j))
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
    """Sorted beam ids and their (active, f, g, b) rows."""
    ids = np.fromiter(plan.assignments, dtype=np.int64, count=len(plan.assignments))
    state = np.array([(a.active, a.f, a.g, a.b) for a in plan.assignments.values()], dtype=np.int64).reshape(-1, 4)
    order = np.argsort(ids)
    return ids[order], state[order]


def pair_positions(ids: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of each pair's two ids in the sorted, distinct ``ids`` (a
    missing one where it would be inserted) and whether each is there, both
    (n, 2). The positions are int_dtype(0, len(ids)), int16 up to 32,767
    ids, found a column at a time into a column-major array. When ``ids`` are
    contiguous, as generated ids are, a position is the id's offset from the
    first, clipped to the insertion points 0 and len(ids); else the sorted
    first column searches fastest alone."""
    n = len(ids)
    at = np.empty((2, len(pairs)), dtype=int_dtype(0, n))
    if n and int(ids[-1]) - int(ids[0]) == n - 1:  # Python ints: the span may pass int64
        lo = ids[0]
        for c in range(2):
            np.subtract(np.clip(pairs[:, c], lo, lo + n), lo, out=at[c], casting="unsafe")
        return at.T, (pairs >= lo) & (pairs < lo + n)
    for c in range(2):
        at[c] = np.searchsorted(ids, pairs[:, c])
    return at.T, (at.T < n) & (np.append(ids, 0)[at.T] == pairs)


# Pairs per block of _flagged_pairs, _is_canonical, RestrictionSets.partners
# and RestrictionSets.check_ids: their gathered per-pair temporaries stay
# below 1 MB, however many pairs there are.
_BLOCK_PAIRS = 1 << 14
# The error message of every path for a pair (i, j) of a kind naming an unknown beam id
_UNKNOWN_PAIR = "{} pair ({}, {}) references unknown beam"


def _position_blocks(kind: str, ids: np.ndarray, pairs: np.ndarray):
    """Yield the pair_positions of each block of _BLOCK_PAIRS ``pairs`` of
    ``kind`` in the sorted ``ids``, in pair order. The first pair naming an
    id outside ``ids`` raises check_ids' DomainError."""
    for lo in range(0, len(pairs), _BLOCK_PAIRS):
        block = pairs[lo:lo + _BLOCK_PAIRS]
        at, found = pair_positions(ids, block)
        if not found.all():
            raise DomainError(_UNKNOWN_PAIR.format(kind, *block[found.all(axis=1).argmin()].tolist()))
        yield at


def _flagged_pairs(kind: str, pairs: np.ndarray, ids: np.ndarray, state: np.ndarray, n_p: int) -> np.ndarray:
    """Indices, ascending, of the pairs on which _pair_violation may report,
    found for a block of pairs at once: both beams on the same key with
    intersecting slot intervals. Only each block's flagged indices are kept,
    so nothing as long as ``pairs`` is allocated. The first pair, in pair
    order, that names an id the plan lacks raises the DomainError that
    _pair_violation would raise (_position_blocks).

    A position's key is its row (intra) or polarization (inter) when the
    beam is active, else a negative value of its own. An inactive beam's key
    can then match only an active beam's invalid negative row, a pair that
    _pair_violation passes.
    """
    active, f, g, b = state.T
    key = np.where(active != 0, g if kind == "intra-overlap" else _polarization(g, n_p), -1 - np.arange(len(g)))
    last = f + b - 1
    flagged = [np.empty(0, dtype=np.intp)]
    lo = 0
    for at in _position_blocks(kind.removesuffix("-overlap"), ids, pairs):
        i, j = at.T
        flagged.append(np.flatnonzero((key[i] == key[j]) & (f[i] <= last[j]) & (f[j] <= last[i])) + lo)
        lo += len(at)
    return np.concatenate(flagged)


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
    """Read a plan written by save_plan_csv. A repeated beam id or an
    ``active`` other than 0 or 1 is a PlanStructureError naming the line."""
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
            if beam_id in assignments:
                raise PlanStructureError(f"line {lineno}: repeated beam id {beam_id}")
            if active not in (0, 1):
                raise PlanStructureError(f"line {lineno}: active must be 0 or 1, got {active}")
            assignments[beam_id] = Assignment(f, g, b, active=bool(active))
    return FrequencyPlan(assignments)

"""Scenario construction: constellation geometry, synthetic beam generation,
beam-to-satellite routing over time, and restriction-set derivation.

The constellation is a single circular equatorial plane with satellites
equally spaced in argument of longitude. Sub-satellite points advance in
longitude at a uniform rate of one revolution per orbital period (rotating
frame approximation); this is the documented stand-in for full orbit
propagation and is sufficient to produce realistic handover patterns.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, RoutingError, ScenarioFormatError
from .model import (
    Beam, FrequencyGrid, RestrictionSets, canonical_pairs, check_positive_finite, int_dtype, pair_ids, range_problem,
)
from .power import LinkBudget

EARTH_RADIUS_KM = 6371.0
MU_EARTH_KM3_S2 = 398600.4418


@dataclass(frozen=True, slots=True)
class ConstellationGeometry:
    """Single-plane circular equatorial constellation."""

    n_s: int
    altitude_km: float

    def __post_init__(self):
        if self.n_s < 1:
            raise DomainError(f"n_s must be >= 1, got {self.n_s}")
        check_positive_finite("altitude_km", self.altitude_km)

    @property
    def period_min(self) -> float:
        a = EARTH_RADIUS_KM + self.altitude_km
        return 2.0 * math.pi * math.sqrt(a**3 / MU_EARTH_KM3_S2) / 60.0

    @property
    def spacing_deg(self) -> float:
        return 360.0 / self.n_s

    def subsatellite_lon(self, sat: int, t_min: float) -> float:
        """Longitude of satellite `sat` (0-based) at time t, degrees in [0, 360)."""
        lon = sat * self.spacing_deg + 360.0 * (t_min / self.period_min)
        return lon % 360.0


@dataclass(frozen=True, slots=True)
class Scenario:
    """A complete problem instance: grid, beams, geometry and sim parameters."""

    grid: FrequencyGrid
    beams: tuple[Beam, ...]
    geometry: ConstellationGeometry
    horizon_min: float = 60.0
    step_min: float = 1.0
    half_cone_deg: float = 1.0
    interference_multiplier: float = 4.0
    min_elevation_deg: float = 10.0
    restrictions: RestrictionSets | None = None
    link: LinkBudget | None = None

    def __post_init__(self):
        if not self.beams:
            raise DomainError("scenario needs at least one beam")
        if not math.isfinite(self.horizon_min):
            raise DomainError(f"horizon_min must be finite, got {self.horizon_min}")
        if not (self.horizon_min >= self.step_min > 0):
            raise DomainError("need horizon_min >= step_min > 0")
        check_positive_finite("half_cone_deg", self.half_cone_deg)
        # a NaN horizon would count every satellite as visible
        if not math.isfinite(self.min_elevation_deg):
            raise DomainError(f"min_elevation_deg must be finite, got {self.min_elevation_deg}")
        if not 0 <= self.interference_multiplier < math.inf:
            raise DomainError(f"interference_multiplier must be finite and >= 0, got {self.interference_multiplier}")
        ids = [b.id for b in self.beams]
        if len(ids) != len(set(ids)):
            raise DomainError("beam ids must be unique")
        if self.restrictions is not None:
            self.restrictions.check_ids(ids)

    def beam_ids(self) -> list[int]:
        return [b.id for b in self.beams]


# Scenario's field defaults, read by generate_synthetic's keywords and the
# CLI's flags: a slotted class keeps none as a class attribute.
SCENARIO_DEFAULTS = {f.name: f.default for f in fields(Scenario) if f.default is not MISSING}


def central_angle_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Geocentric great-circle angle between two lat/lon points, degrees."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    cosang = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(l1 - l2)
    return math.degrees(math.acos(max(-1.0, min(1.0, cosang))))


def elevation_deg(central_deg: float, altitude_km: float) -> float:
    """Elevation of a satellite seen from a ground point at the given
    geocentric central angle."""
    psi = math.radians(central_deg)
    ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)
    if math.sin(psi) == 0.0:
        return 90.0
    return math.degrees(math.atan2(math.cos(psi) - ratio, math.sin(psi)))


# numpy's sin/cos/arccos/arctan2 may differ from math's by a few ulp (its
# SIMD arccos does on about 9% of inputs on AVX-512 machines), so the array
# kernels below re-make with the scalar functions above every threshold
# decision whose array value lies within this many degrees of the threshold.
# A few ulp move an angle by far less (at most 3e-14 deg measured), away
# from 0 and 180 degrees where arccos magnifies an error in its argument.
_GUARD_DEG = 1e-7


def _trig(lat, lon):
    """sin and cos of the latitudes and the longitudes in radians, as
    central_angle_deg computes them."""
    p = np.radians(lat)
    return np.sin(p), np.cos(p), np.radians(lon)


def _central_angles(sin1, cos1, lon1, sin2, cos2, lon2) -> np.ndarray:
    """central_angle_deg over broadcast arrays from ``_trig`` values, with
    the same formula and operation order."""
    cosang = sin1 * sin2 + cos1 * cos2 * np.cos(lon1 - lon2)
    return np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))


def _pair_angles(lats, lons, trig, first: np.ndarray, second: np.ndarray, threshold: float) -> np.ndarray:
    """central_angle_deg from point first[k] to point second[k], over the
    points' ``_trig`` values, with every angle within _GUARD_DEG of
    ``threshold`` recomputed by central_angle_deg itself."""
    sin, cos, lon = trig
    ang = _central_angles(sin[first], cos[first], lon[first], sin[second], cos[second], lon[second])
    for k in np.flatnonzero(np.abs(ang - threshold) <= _GUARD_DEG).tolist():
        a, b = first[k], second[k]
        ang[k] = central_angle_deg(lats[a], lons[a], lats[b], lons[b])
    return ang


@dataclass(frozen=True)
class GenerationParams:
    """Controls for the synthetic user/beam generator."""

    lat_band_deg: tuple[float, float] = (-50.0, 50.0)

    def __post_init__(self):
        lo, hi = self.lat_band_deg
        if not -90.0 <= lo <= hi <= 90.0:
            raise DomainError(f"lat_band_deg must satisfy -90 <= lo <= hi <= 90, got {lo} {hi}")


# each generated user's demand is drawn log-uniformly from this range
_DEMAND_RANGE_BPS = (10e6, 500e6)


# elements per block of the clustering's user pairs and of the pair kernels'
# beams x beams arrays, which keeps their temporaries small
_BLOCK_ELEMENTS = 1 << 15


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[k] .. starts[k] + counts[k] - 1, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) + np.repeat(starts - ends + counts, counts)


# points per block of _earlier_neighbours' cell lookup: its (points, 27)
# int64 temporaries stay below 1 MB
_NEIGHBOUR_BLOCK = 1 << 12


def _earlier_neighbours(sin_lat, cos_lat, p_lon, threshold: float):
    """Yield blocks (lo, hi, us, vs) of the pairs of each point u in lo..hi-1
    and each earlier point v that may lie within ``threshold`` deg of it, in
    u order; a block holds about _BLOCK_ELEMENTS pairs.

    Points are bucketed into cubic cells of their unit vectors (no seam at
    0/360 deg, no special case at the poles) whose side exceeds the chord of
    ``threshold``, so every such v sits in u's cell or an adjacent one
    (fixed-radius near neighbours, Bentley, Stanat and Williams, IPL 6(6),
    1977). The padding, 1e-6 of chord or about 6e-5 deg, exceeds the error
    of the scalar test's arccos, which is largest near 0 deg at a few 1e-6
    deg.
    """
    side = 2.0 * math.sin(math.radians(min(threshold, 180.0)) / 2.0) + 1e-6
    points = np.column_stack((cos_lat * np.cos(p_lon), cos_lat * np.sin(p_lon), sin_lat))
    n = len(points)
    coords = np.floor(points / side).astype(np.int64)
    coords -= coords.min(axis=0) - 1  # from 1, so every neighbour's is >= 0
    # one int64 key per cell: below 8.1e18 for any side >= 1e-6 on the unit sphere
    span = coords.max(axis=0) + 2
    keys = (coords[:, 0] * span[1] + coords[:, 1]) * span[2] + coords[:, 2]
    occupied, cell = np.unique(keys, return_inverse=True)
    # a row (u, c) per user u and occupied cell c adjacent to u's or u's own,
    # in u order, looked up for _NEIGHBOUR_BLOCK users at a time
    steps = [(dx * span[1] + dy) * span[2] + dz for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    padded = np.append(occupied, -1)
    us, cs = [], []
    for lo in range(0, n, _NEIGHBOUR_BLOCK):
        wanted = keys[lo:lo + _NEIGHBOUR_BLOCK, None] + np.array(steps)
        at = np.searchsorted(occupied, wanted)
        u, k = np.nonzero(padded[at] == wanted)
        us.append(np.add(u, lo, dtype=np.int32))
        cs.append(at[u, k].astype(np.int32))
    u, c = np.concatenate(us), np.concatenate(cs)
    del us, cs, wanted, at, k
    # with the users by cell, then index, u's earlier users in c are
    # members[first:first + count]
    members = np.argsort(cell, kind="stable")
    first = np.searchsorted(cell[members], c)
    # in int64: c * n passes int32 from 46,341 points
    count = np.searchsorted(cell[members] * n + members, c.astype(np.int64) * n + u) - first
    user_rows = np.searchsorted(u, np.arange(n + 1))
    before = np.append(0, np.cumsum(count))[user_rows]  # pairs before each user
    lo = 0
    while lo < n:
        hi = min(n, max(lo + 1, int(np.searchsorted(before, before[lo] + _BLOCK_ELEMENTS))))
        rows = slice(user_rows[lo], user_rows[hi])
        yield lo, hi, np.repeat(u[rows], count[rows]), members[_spans(first[rows], count[rows])]
        lo = hi


def _cluster_users(lats: np.ndarray, lons: np.ndarray, half_cone_deg: float) -> list[list[int]]:
    """Greedy clustering: each user joins the first cluster all of whose
    members lie within 2*half_cone_deg of it, else starts a new one.

    Each user is tested only against the earlier users _earlier_neighbours
    finds near it. A cluster with a member outside those has a too-far
    member, so the user joins the lowest-numbered cluster whose near members
    are all of its members. Members stay in ascending user order.
    """
    threshold = 2.0 * half_cone_deg
    trig = _trig(lats, lons)
    label: list[int] = []
    clusters: list[list[int]] = []
    for lo, hi, us, vs in _earlier_neighbours(*trig, threshold):
        near = _pair_angles(lats, lons, trig, us, vs, threshold) <= threshold
        near_users = vs[near].tolist()
        ends = np.cumsum(np.bincount(us[near] - lo, minlength=hi - lo)).tolist()
        for u, start, end in zip(range(lo, hi), [0] + ends, ends):
            counts = Counter(map(label.__getitem__, near_users[start:end]))
            join = min((c for c, k in counts.items() if k == len(clusters[c])), default=len(clusters))
            if join == len(clusters):
                clusters.append([])
            clusters[join].append(u)
            label.append(join)
    return clusters


def _cluster_reductions(clusters: list[list[int]], lats, lons, demands) -> list[list[float]]:
    """Per cluster, the np.mean of its members' lats and lons and the np.sum
    of their demands: three lists in cluster order.

    Clusters of one size are reduced together along the rows of their
    (clusters, size) member matrix. numpy sums each C-contiguous row as it
    sums a 1-D array (pairwise, with the same grouping at 8 and 128
    elements), so every value equals the per-cluster call's.
    """
    sizes = np.fromiter(map(len, clusters), dtype=np.int64, count=len(clusters))
    members = np.fromiter(chain.from_iterable(clusters), dtype=np.int64, count=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    out = np.empty((3, len(clusters)))
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        which = np.flatnonzero(sizes == size)
        rows = members[starts[which, None] + np.arange(size)]
        out[0, which] = np.mean(lats[rows], axis=1)
        out[1, which] = np.mean(lons[rows], axis=1)
        out[2, which] = np.sum(demands[rows], axis=1)
    return out.tolist()


def generate_synthetic(
    seed: int,
    n_users: int,
    grid: FrequencyGrid,
    geometry: ConstellationGeometry,
    params: GenerationParams = GenerationParams(),
    *,
    horizon_min: float = SCENARIO_DEFAULTS["horizon_min"],
    step_min: float = SCENARIO_DEFAULTS["step_min"],
    half_cone_deg: float = SCENARIO_DEFAULTS["half_cone_deg"],
) -> Scenario:
    """Sample users, cluster them greedily into user beams, and build a
    scenario.

    Deterministic for a fixed seed. Users go to the first existing cluster
    where they stay within 2*half_cone_deg of every member; cluster centroid
    becomes the beam center and demands add up. Gateway beams come only from
    scenario files.
    """
    if n_users < 1:
        raise DomainError(f"n_users must be >= 1, got {n_users}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    check_positive_finite("half_cone_deg", half_cone_deg)  # the clustering reads it
    rng = np.random.default_rng(seed)
    lat_lo, lat_hi = params.lat_band_deg
    lats = rng.uniform(lat_lo, lat_hi, size=n_users)
    lons = rng.uniform(0.0, 360.0, size=n_users)
    lo, hi = _DEMAND_RANGE_BPS
    demands = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n_users))

    clusters = _cluster_users(lats, lons, half_cone_deg)
    centroids = _cluster_reductions(clusters, lats, lons, demands)

    beams = tuple(
        Beam(id=idx, lat=lat, lon=lon, demand_bps=demand)
        for idx, (lat, lon, demand) in enumerate(zip(*centroids), start=1)
    )
    return Scenario(
        grid=grid,
        beams=beams,
        geometry=geometry,
        horizon_min=horizon_min,
        step_min=step_min,
        half_cone_deg=half_cone_deg,
    )


def routing_steps(scenario: Scenario) -> list[float]:
    """Time steps {0, step, ...} up to and including the horizon."""
    steps = []
    t = 0.0
    k = 0
    while t <= scenario.horizon_min + 1e-9:
        steps.append(t)
        k += 1
        t = k * scenario.step_min
    return steps


def _nearest_visible(beam: Beam, sat_lons: Sequence[float], scenario: Scenario) -> int | None:
    """Nearest satellite above the minimum elevation (ties: lower index)."""
    best: tuple[float, int] | None = None
    for s, slon in enumerate(sat_lons):
        ang = central_angle_deg(beam.lat, beam.lon, 0.0, slon)
        if elevation_deg(ang, scenario.geometry.altitude_km) < scenario.min_elevation_deg:
            continue
        if best is None or (ang, s) < best:
            best = (ang, s)
    return None if best is None else best[1]


def route_beams(scenario: Scenario) -> np.ndarray:
    """The nearest satellite (0-based) above the minimum elevation of each
    beam at each time step, ties to the lower index: ``sat[t, i]`` for the
    t-th of routing_steps and the i-th of ``scenario.beams``, a (steps,
    beams) array of int_dtype(-1, n_s - 1): int16 up to 32,767 satellites.

    Raises RoutingError when a beam has no satellite above the minimum
    elevation at some step (the first step, then the first beam in
    ``scenario.beams`` order). A satellite is visible when its central angle
    is at most the horizon angle psi_max = acos(r cos e) - e (r = R / (R + h),
    e the minimum elevation), where elevation_deg reaches e. Elevation falls
    at least 1 deg per degree of central angle above the horizon and at least
    half a degree anywhere, so this test agrees with elevation_deg's outside
    _GUARD_DEG of psi_max. A beam with an angle inside that band, or with its
    best two angles within it of each other, is routed with the scalar rule.
    Steps go in blocks of about _BLOCK_ELEMENTS beam-satellite angles.
    """
    geom = scenario.geometry
    beams = scenario.beams
    n, n_s = len(beams), geom.n_s
    elev = math.radians(scenario.min_elevation_deg)
    ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + geom.altitude_km)
    horizon = math.degrees(math.acos(ratio * math.cos(elev)) - elev)
    sin_b, cos_b, lon_b = _trig([b.lat for b in beams], [b.lon for b in beams])
    steps = routing_steps(scenario)
    sat = np.empty((len(steps), n), dtype=int_dtype(-1, n_s - 1))
    per_block = max(1, _BLOCK_ELEMENTS // (n * n_s))
    for lo in range(0, len(steps), per_block):
        times = steps[lo : lo + per_block]
        sat_lons = [[geom.subsatellite_lon(s, t) for s in range(n_s)] for t in times]
        # ang[t, i, s]: central angle of the i-th beam to satellite s at step lo + t
        ang = _central_angles(
            sin_b[:, None], cos_b[:, None], lon_b[:, None], *_trig(0.0, np.array(sat_lons)[:, None, :])
        )
        unsure = (np.abs(ang - horizon) <= _GUARD_DEG).any(axis=2)
        ang[ang > horizon] = np.inf
        best = sat[lo : lo + len(times)]
        np.argmin(ang, axis=2, out=best)  # first minimum: lower satellite index
        if n_s > 1:
            ang.partition(1, axis=2)  # the smallest angle first, the next second
            with np.errstate(invalid="ignore"):  # inf - inf: no visible satellite
                unsure |= ang[..., 1] - ang[..., 0] <= _GUARD_DEG
        best[np.isinf(ang[..., 0])] = -1
        for t, i in np.argwhere(unsure).tolist():
            nearest = _nearest_visible(beams[i], sat_lons[t], scenario)
            best[t, i] = -1 if nearest is None else nearest
        unrouted = np.argwhere(best < 0)  # by step, then by beam
        if len(unrouted):
            t, i = unrouted[0].tolist()
            raise RoutingError(beams[i].id, times[t])
    return sat


def derive_intra_pairs(scenario: Scenario, sat: np.ndarray) -> np.ndarray:
    """Pairs of beams sharing a satellite at any routing step, as
    model.canonical_pairs in the dtype of model.pair_ids (int16 over
    generated ids up to 32,767), from route_beams' (steps, beams) array
    ``sat``.

    Each beam's one-hot (step, satellite) memberships are packed into 64-bit
    words (7 words for 61 steps and 7 satellites), so a block of beam pairs
    takes one AND per word instead of one compare per step.
    """
    steps, n = sat.shape
    n_s = scenario.geometry.n_s
    member = np.zeros((n, -(-steps * n_s // 64) * 64), dtype=bool)  # whole words
    member[np.arange(n), np.arange(steps)[:, None] * n_s + sat] = True
    # words[w, i]: word w of the i-th beam
    words = np.ascontiguousarray(np.packbits(member, axis=1).view(np.uint64).T)
    del member
    # Rows of the upper triangle go in blocks of about _BLOCK_ELEMENTS
    # cells. Pass 1 keeps each block's pair count and its upper triangle
    # packed 8 cells a byte (n**2 / 16 bytes in all); pass 2 unpacks each
    # block into the preallocated output, row-major, blocks ascending. With
    # ids ascending by position, as generated, the pairs come out canonical
    # and are not sorted again.
    keys = pair_ids(scenario.beam_ids())
    step = max(1, _BLOCK_ELEMENTS // n)
    blocks = []
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        shared = np.zeros((hi - lo, n - lo), dtype=bool)
        both = np.empty(shared.shape, dtype=np.uint64)
        hit = np.empty_like(shared)
        for word in words:
            np.bitwise_and(word[lo:hi, None], word[None, lo:], out=both)
            np.not_equal(both, 0, out=hit)
            shared |= hit
        upper = np.triu(shared, 1)
        blocks.append((lo, shared.shape, np.count_nonzero(upper), np.packbits(upper)))
    pairs = np.empty((sum(count for *_, count, _ in blocks), 2), dtype=keys.dtype)
    at = 0
    while blocks:
        lo, shape, count, packed = blocks.pop(0)  # freed once written
        r, c = np.nonzero(np.unpackbits(packed, count=shape[0] * shape[1]).reshape(shape))
        pairs[at:at + count, 0], pairs[at:at + count, 1] = keys[lo:][r], keys[lo:][c]
        at += count
    return canonical_pairs(pairs)


def derive_inter_pairs(scenario: Scenario) -> np.ndarray:
    """Pairs of beams whose footprint centers are closer than
    interference_multiplier * half_cone_deg (strict), as
    model.canonical_pairs in the dtype of model.pair_ids.

    Only the pairs of beams that _earlier_neighbours finds near each other
    are tested."""
    threshold = scenario.interference_multiplier * scenario.half_cone_deg
    lats, lons = [b.lat for b in scenario.beams], [b.lon for b in scenario.beams]
    trig = _trig(lats, lons)
    ids = pair_ids(scenario.beam_ids())
    blocks = [np.empty((0, 2), dtype=ids.dtype)]
    for _, _, us, vs in _earlier_neighbours(*trig, threshold):
        # the earlier beam is the first point, as in the scalar loop
        close = _pair_angles(lats, lons, trig, vs, us, threshold) < threshold
        blocks.append(np.column_stack((ids[vs[close]], ids[us[close]])))
    return canonical_pairs(np.concatenate(blocks))


def derive_restrictions(scenario: Scenario) -> RestrictionSets:
    """Compute R_A from routing and R_E from static footprint separation.

    Returns the scenario's explicit restriction sets when present.
    """
    if scenario.restrictions is not None:
        return scenario.restrictions
    # the routing array (54 KB at 443 beams) is freed before the inter
    # kernel's blocks are made
    return RestrictionSets(
        intra=derive_intra_pairs(scenario, route_beams(scenario)),
        inter=derive_inter_pairs(scenario),
    )


# --- JSON serialization ---------------------------------------------------
#
# A scenario file holds one JSON object per dataclass, under the dataclass's
# own field names: "grid" (FrequencyGrid), "geometry" (ConstellationGeometry),
# each entry of the "beams" list (Beam), "link" (LinkBudget) and "sim" (the
# Scenario fields without a section of their own). "restrictions" holds the
# sorted [i, j] pairs of each RestrictionSets kind. Field names, defaults and
# which fields are required are read from the dataclasses.


def _integer(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    number = float(value)
    if not math.isfinite(number):  # JSON readers accept NaN and Infinity
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _pair(value) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected two integers, got {value!r}")
    return _integer(value[0]), _integer(value[1])


_INT64 = np.iinfo(np.int64)


def _restriction_pair(value) -> tuple[int, int]:
    pair = _pair(value)
    for i in pair:
        if not _INT64.min <= i <= _INT64.max:  # model.canonical_pairs stores int64
            raise ValueError(f"{i} is outside int64")
    return pair


# the cast of each declared field type (annotations are strings here)
_CASTS = {
    "int": _integer,
    "float": _float,
    "str": _string,
    "tuple[int, int] | None": lambda value: None if value in (None, []) else _pair(value),
}


def _cast(cast, value, path: str):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(path, str(exc)) from exc


def _object(doc, path: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise ScenarioFormatError(path, "expected an object")
    return doc


def _list(doc, path: str) -> list:
    if not isinstance(doc, list):
        raise ScenarioFormatError(path, "expected a list")
    return doc


def _section(cls, doc, path: str, /, **parts):
    """``cls(**parts)`` with its other fields read from the JSON object
    ``doc`` at ``path``. A field without a default is required, a present one
    is cast to its declared type, and the constructor's DomainError is
    reported at ``path``."""
    doc = _object(doc, path)
    for f in fields(cls):
        if f.name in parts:
            continue
        if f.name in doc:
            parts[f.name] = _cast(_CASTS[f.type], doc[f.name], f"{path}.{f.name}")
        elif f.default is MISSING:
            raise ScenarioFormatError(f"{path}.{f.name}", "missing field")
    try:
        return cls(**parts)
    except DomainError as exc:
        raise ScenarioFormatError(path, str(exc)) from exc


def _beams(doc, grid: FrequencyGrid) -> tuple[Beam, ...]:
    """The beams at ``beams``, each range checked against ``grid`` at its
    field path; the Scenario checks on beams are reported at ``beams``."""
    beams = []
    for k, item in enumerate(_list(doc, "beams")):
        beam = _section(Beam, item, f"beams[{k}]")
        for name, n in (("allowed_rows", grid.n_rows), ("allowed_slots", grid.n_bw)):
            span = getattr(beam, name)
            problem = span is not None and range_problem(span, n)
            if problem:
                raise ScenarioFormatError(f"beams[{k}].{name}", f"range {list(span)} {problem}")
        beams.append(beam)
    if not beams:
        raise ScenarioFormatError("beams", "scenario needs at least one beam")
    if len({b.id for b in beams}) != len(beams):
        raise ScenarioFormatError("beams", "beam ids must be unique")
    return tuple(beams)


def _with_restrictions(doc, scenario: Scenario) -> Scenario:
    """``scenario`` with the pairs at ``restrictions``, whose ids its
    constructor checks; a DomainError is reported at ``restrictions``."""
    doc = _object(doc, "restrictions")
    pairs = {}
    for kind in ("intra", "inter"):
        path = f"restrictions.{kind}"
        listed = _list(doc.get(kind, []), path)
        checked = [_cast(_restriction_pair, p, f"{path}[{k}]") for k, p in enumerate(listed)]
        pairs[kind] = np.array(checked, dtype=np.int64).reshape(-1, 2)  # canonical_pairs' numpy path
    try:
        return replace(scenario, restrictions=RestrictionSets(**pairs))
    except DomainError as exc:
        raise ScenarioFormatError("restrictions", str(exc)) from exc


def _values(obj, skip=()) -> dict:
    """The fields of dataclass ``obj`` outside ``skip`` that are set (not
    None or an empty range), tuples as lists."""
    return {
        f.name: list(value) if isinstance(value, tuple) else value
        for f in fields(obj)
        if f.name not in skip and (value := getattr(obj, f.name)) not in (None, ())
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    restrictions, link = scenario.restrictions, scenario.link
    doc = {
        "grid": _values(scenario.grid),
        "geometry": _values(scenario.geometry),
        "beams": [_values(b) for b in scenario.beams],
        "restrictions": None if restrictions is None else {
            kind: pairs.tolist() for kind, pairs in restrictions.pairs.items()
        },
        "link": None if link is None else _values(link),
    }
    doc["sim"] = _values(scenario, skip=doc)
    return {name: section for name, section in doc.items() if section is not None}


def scenario_from_dict(doc: Mapping) -> Scenario:
    doc = _object(doc, "<document>")
    for f in fields(Scenario):
        if f.default is MISSING and f.name not in doc:
            raise ScenarioFormatError(f.name, "missing field")
    grid = _section(FrequencyGrid, doc["grid"], "grid")
    geometry = _section(ConstellationGeometry, doc["geometry"], "geometry")
    scenario = _section(
        Scenario, doc.get("sim", {}), "sim",
        grid=grid,
        beams=_beams(doc["beams"], grid),
        geometry=geometry,
        link=_section(LinkBudget, doc["link"], "link") if "link" in doc else None,
    )
    return _with_restrictions(doc["restrictions"], scenario) if "restrictions" in doc else scenario


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError("<document>", f"invalid JSON: {exc}") from exc
    return scenario_from_dict(doc)

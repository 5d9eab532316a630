"""Link-budget power model: required spectral efficiency, MODCOD selection,
C/N0 chain and per-beam power tables.

All chain arithmetic is carried out in dB. The chain is:

    gamma_req = D * (1 + rolloff) / BW
    modcod    = first table entry with gamma >= gamma_req (else sentinel)
    C/N0 [dBHz] = ebn0_db + 10*log10(D)
    P [dBW]   = C/N0 + OBO - G_tx - G_rx + FSPL + 10*log10(k * T_sys)

Atmospheric losses are neglected; free-space path loss dominates.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .model import Beam, FrequencyGrid, check_positive_finite

BOLTZMANN = 1.380649e-23  # J/K
SPEED_OF_LIGHT = 299792458.0  # m/s

# Reporting floor for the dB chain; demand 0 would otherwise be -inf dBW.
MIN_POWER_DBW = -300.0


@dataclass(frozen=True)
class ModCod:
    """A modulation-and-coding scheme: spectral efficiency and required Eb/N."""

    name: str
    spectral_efficiency: float  # bit/s/Hz
    ebn0_db: float

    def __post_init__(self):
        check_positive_finite(f"{self.name}: spectral_efficiency", self.spectral_efficiency)
        if not math.isfinite(self.ebn0_db):
            raise DomainError(f"{self.name}: ebn0_db must be finite, got {self.ebn0_db}")


@dataclass(frozen=True)
class ModCodTable:
    """Ordered MODCOD list with strictly increasing spectral efficiency and
    non-decreasing Eb/N (required for power monotonicity in bandwidth)."""

    entries: tuple[ModCod, ...]

    def __post_init__(self):
        for prev, cur in zip(self.entries, self.entries[1:]):
            if cur.spectral_efficiency <= prev.spectral_efficiency:
                raise DomainError(
                    f"spectral efficiency not strictly increasing at {cur.name}"
                )
            if cur.ebn0_db < prev.ebn0_db:
                raise DomainError(f"ebn0_db decreases at {cur.name}")


# Generic 12-point efficiency ladder spanning 0.5..5.5 bit/s/Hz. Stands in
# for the DVB-S2/S2X operating points; substitute exact values via
# load_modcod_csv when needed.
DEFAULT_MODCODS = ModCodTable(
    entries=(
        ModCod("QPSK-1/4", 0.50, -2.3),
        ModCod("QPSK-1/2", 1.00, 1.0),
        ModCod("QPSK-3/4", 1.50, 4.0),
        ModCod("8PSK-2/3", 2.00, 6.6),
        ModCod("8PSK-5/6", 2.50, 9.4),
        ModCod("16APSK-3/4", 3.00, 10.2),
        ModCod("16APSK-8/9", 3.55, 12.9),
        ModCod("32APSK-4/5", 4.00, 13.6),
        ModCod("32APSK-9/10", 4.50, 16.1),
        ModCod("64APSK-5/6", 5.00, 17.5),
        ModCod("128APSK-3/4", 5.25, 18.1),
        ModCod("256APSK-3/4", 5.50, 19.0),
    )
)


def load_modcod_csv(path) -> ModCodTable:
    """Load a `name, spectral_efficiency, ebn0_db` table (header row required).

    A number that does not parse, or is not finite, raises DomainError naming
    its line and column.
    """
    entries = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"name", "spectral_efficiency", "ebn0_db"}
        if reader.fieldnames is not None:
            reader.fieldnames = [f.strip() for f in reader.fieldnames]
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise DomainError(f"modcod CSV must have columns {sorted(required)}")
        for row in reader:
            numbers = []
            for column in ("spectral_efficiency", "ebn0_db"):
                try:
                    numbers.append(float(row[column]))
                except (TypeError, ValueError):
                    numbers.append(math.nan)
                if not math.isfinite(numbers[-1]):
                    raise DomainError(
                        f"modcod CSV line {reader.line_num}, column {column}: "
                        f"{row[column]!r} is not a finite number"
                    )
            entries.append(ModCod(row["name"].strip(), *numbers))
    return ModCodTable(tuple(entries))


@dataclass(frozen=True)
class LinkBudget:
    """Fixed link parameters for the dB chain."""

    rolloff: float = 0.1
    obo_db: float = 0.5
    g_tx_db: float = 45.0
    g_rx_db: float = 40.0
    t_sys_k: float = 290.0
    carrier_hz: float = 19.7e9
    distance_m: float = 8062e3

    def __post_init__(self):
        if not 0 <= self.rolloff < math.inf:
            raise DomainError(f"rolloff must be finite and >= 0, got {self.rolloff}")
        for name in ("obo_db", "g_tx_db", "g_rx_db"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("t_sys_k", "carrier_hz", "distance_m"):
            check_positive_finite(name, getattr(self, name))


def required_spectral_efficiency(demand_bps: float, rolloff: float, bw_hz: float) -> float:
    """Lower bound on spectral efficiency: D * (1 + rolloff) / BW."""
    if bw_hz <= 0:
        raise DomainError(f"bw_hz must be positive, got {bw_hz}")
    if demand_bps < 0:
        raise DomainError("demand_bps must be >= 0")
    return demand_bps * (1.0 + rolloff) / bw_hz


def _modcod_index(efficiencies: Sequence[float], gamma_req: float) -> int | None:
    """Position of the first of the strictly increasing ``efficiencies``
    that is >= gamma_req, or None. The last test rejects a NaN gamma_req,
    as a scan would."""
    k = bisect.bisect_left(efficiencies, gamma_req)
    return k if k < len(efficiencies) and efficiencies[k] >= gamma_req else None


def select_modcod(table: ModCodTable, gamma_req: float) -> ModCod | None:
    """First entry whose spectral efficiency is >= gamma_req, or None."""
    k = _modcod_index([e.spectral_efficiency for e in table.entries], gamma_req)
    return None if k is None else table.entries[k]


def fspl_db(distance_m: float, carrier_hz: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c) in dB."""
    if distance_m <= 0 or carrier_hz <= 0:
        raise DomainError("distance_m and carrier_hz must be positive")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * carrier_hz / SPEED_OF_LIGHT)


def _noise_db(link: LinkBudget) -> float:
    """10*log10(k * T_sys), the chain's noise density in dBW/Hz."""
    return 10.0 * math.log10(BOLTZMANN * link.t_sys_k)


def _carried_power(
    modcod: ModCod, demand_bps: float, link: LinkBudget, path_loss: float, noise_db: float
) -> tuple[float, float, float]:
    """C/N0 [dBHz], power [dBW] and power [W] of a demand that ``modcod``
    carries: the dB chain, summed left to right and floored at
    MIN_POWER_DBW. Demand 0 needs no power."""
    if demand_bps == 0:
        return MIN_POWER_DBW, MIN_POWER_DBW, 0.0
    cn0_dbhz = modcod.ebn0_db + 10.0 * math.log10(demand_bps)
    dbw = cn0_dbhz + link.obo_db - link.g_tx_db - link.g_rx_db + path_loss + noise_db
    dbw = max(dbw, MIN_POWER_DBW)
    return cn0_dbhz, dbw, 10.0 ** (dbw / 10.0)


@dataclass(frozen=True)
class PowerResult:
    """Power with the audited dB-chain intermediates."""

    dbw: float
    watts: float
    gamma_req: float
    modcod: ModCod | None
    cn0_dbhz: float | None = None
    fspl_db: float | None = None

    @property
    def feasible(self) -> bool:
        return self.modcod is not None


def beam_power(
    demand_bps: float,
    bw_hz: float,
    link: LinkBudget,
    table: ModCodTable,
    big_m: float,
) -> PowerResult:
    """Required beam power for a demand in a given bandwidth.

    Returns the big_m sentinel (dBW) when no MODCOD can carry the demand.
    """
    gamma_req = required_spectral_efficiency(demand_bps, link.rolloff, bw_hz)
    modcod = select_modcod(table, gamma_req)
    if modcod is None:
        return PowerResult(dbw=big_m, watts=10.0 ** (big_m / 10.0), gamma_req=gamma_req, modcod=None)
    path_loss = fspl_db(link.distance_m, link.carrier_hz)
    cn0_dbhz, dbw, watts = _carried_power(modcod, demand_bps, link, path_loss, _noise_db(link))
    return PowerResult(
        dbw=dbw,
        watts=watts,
        gamma_req=gamma_req,
        modcod=modcod,
        cn0_dbhz=cn0_dbhz,
        fspl_db=path_loss,
    )


class PowerTable:
    """Per-beam lookup b -> power. Under this model power depends only on
    the width b; ``value`` alone keeps an (f, b) key because the benchmark
    (perfbench/workloads.py) calls ``value(a.f, a.b)`` and changes only in
    a change of its own.

    A table holds its beam id, three read-only ``(beams, n_bw)`` arrays
    (float64 dBW, float64 W, bool carried) and its row in them: the arrays
    power_tables_for's tables share, or one-row arrays of the sequences
    given to the constructor (a given array stays writeable). The
    ``by_slots_*`` columns are that row's views, made on access; ``value``,
    ``watts`` and ``carries`` return Python floats and bools. Tables
    compare by identity."""

    __slots__ = ("beam_id", "_arrays", "_row")

    def __init__(self, beam_id: int, by_slots_dbw: Sequence[float], by_slots_w: Sequence[float],
                 by_slots_carried: Sequence[bool]):
        arrays = []
        for column, dtype in ((by_slots_dbw, np.float64), (by_slots_w, np.float64), (by_slots_carried, bool)):
            array = np.asarray(column, dtype=dtype)[None]  # a view: the caller's array keeps its flags
            array.flags.writeable = False
            arrays.append(array)
        self.beam_id, self._arrays, self._row = beam_id, tuple(arrays), 0

    @classmethod
    def _of_row(cls, beam_id: int, arrays: tuple[np.ndarray, np.ndarray, np.ndarray], row: int) -> "PowerTable":
        """The table of row ``row`` of power_tables_for's read-only arrays."""
        table = cls.__new__(cls)
        table.beam_id, table._arrays, table._row = beam_id, arrays, row
        return table

    @property
    def by_slots_dbw(self) -> np.ndarray:  # index b-1
        return self._arrays[0][self._row]

    @property
    def by_slots_w(self) -> np.ndarray:
        return self._arrays[1][self._row]

    @property
    def by_slots_carried(self) -> np.ndarray:  # False: no MODCOD, the power is the big_m sentinel
        return self._arrays[2][self._row]

    def _at(self, column: int, b: int):
        array = self._arrays[column]
        # a width of 0 or below would index the row from its end
        if not 1 <= b <= array.shape[1]:
            raise DomainError(f"beam {self.beam_id}: b={b} outside 1..{array.shape[1]}")
        return array[self._row, b - 1].item()

    def value(self, f: int, b: int) -> float:
        """Power in dBW for an assignment of b slots (f ignored)."""
        return self._at(0, b)

    def watts(self, b: int) -> float:
        return self._at(1, b)

    def carries(self, b: int) -> bool:
        """Whether some MODCOD carries the beam's demand in b slots."""
        return self._at(2, b)


# beams per block of power_tables_for's (beams, widths) temporaries
_TABLE_BLOCK_BEAMS = 512


def power_tables_for(
    beams: Sequence[Beam],
    grid: FrequencyGrid,
    link: LinkBudget,
    table: ModCodTable = DEFAULT_MODCODS,
    big_m: float = 1000.0,
) -> dict[int, PowerTable]:
    """Precompute power tables for every beam: the values beam_power gives
    at each width b * slot_bandwidth_hz.

    The tables share three read-only (beams, n_bw) arrays, float64 dBW,
    float64 W and bool carried; each beam's PowerTable holds them and its
    row, and makes no array of its own. For a block of
    beams at once, gamma_req of every (beam, width) is
    required_spectral_efficiency's expression in its order of operations,
    and the MODCOD is _modcod_index's: a left searchsorted, then the >= test
    that rejects NaN. Widths that select the same MODCOD need the same
    power, so the scalar chain runs once per (beam, MODCOD)."""
    efficiencies = np.array([e.spectral_efficiency for e in table.entries], dtype=np.float64)
    uncarried = len(efficiencies)  # the MODCOD column of a width none carries
    path_loss, noise_db = fspl_db(link.distance_m, link.carrier_hz), _noise_db(link)
    bw_hz = np.arange(1, grid.n_bw + 1) * grid.slot_bandwidth_hz
    dbw = np.empty((len(beams), grid.n_bw), dtype=np.float64)
    watts = np.empty_like(dbw)
    carried = np.empty(dbw.shape, dtype=bool)
    for lo in range(0, len(beams), _TABLE_BLOCK_BEAMS):
        block = beams[lo : lo + _TABLE_BLOCK_BEAMS]
        hi = lo + len(block)
        demand = np.array([beam.demand_bps for beam in block], dtype=np.float64)
        gamma = (demand * (1.0 + link.rolloff))[:, None] / bw_hz
        k = np.searchsorted(efficiencies, gamma)
        np.greater_equal(np.append(efficiencies, -np.inf)[k], gamma, out=carried[lo:hi])
        k[~carried[lo:hi]] = uncarried
        # the (dbw, watts) of each (beam, MODCOD) the block uses, which every
        # width selecting it shares
        codes, inverse = np.unique(np.arange(len(block))[:, None] * (uncarried + 1) + k, return_inverse=True)
        powers = np.array([
            (big_m, 10.0 ** (big_m / 10.0)) if c == uncarried
            else _carried_power(table.entries[c], block[r].demand_bps, link, path_loss, noise_db)[1:]
            for r, c in (divmod(code, uncarried + 1) for code in codes.tolist())
        ], dtype=np.float64).reshape(-1, 2)[inverse.reshape(k.shape)]
        dbw[lo:hi], watts[lo:hi] = powers[..., 0], powers[..., 1]
    arrays = (dbw, watts, carried)
    for array in arrays:
        array.flags.writeable = False
    return {beam.id: PowerTable._of_row(beam.id, arrays, row) for row, beam in enumerate(beams)}

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

from .errors import DomainError
from .model import Beam, FrequencyGrid

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
        if self.spectral_efficiency <= 0:
            raise DomainError(f"{self.name}: spectral_efficiency must be positive")


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

    A number that does not parse raises DomainError naming its line and column.
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
                except (TypeError, ValueError) as exc:
                    raise DomainError(
                        f"modcod CSV line {reader.line_num}, column {column}: "
                        f"{row[column]!r} is not a number"
                    ) from exc
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
        if self.rolloff < 0:
            raise DomainError("rolloff must be >= 0")
        if self.t_sys_k <= 0 or self.carrier_hz <= 0 or self.distance_m <= 0:
            raise DomainError("t_sys_k, carrier_hz and distance_m must be positive")


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


@dataclass(frozen=True)
class PowerTable:
    """Per-beam lookup (f, b) -> power. Under this model the value depends
    only on b; the (f, b) key is kept for forward compatibility."""

    beam_id: int
    by_slots_dbw: tuple[float, ...]  # index b-1
    by_slots_w: tuple[float, ...]
    by_slots_carried: tuple[bool, ...]  # False: no MODCOD, the power is the big_m sentinel

    def _at(self, column: tuple, b: int):
        # a width of 0 or below would index the tuple from its end
        if not 1 <= b <= len(column):
            raise DomainError(f"beam {self.beam_id}: b={b} outside 1..{len(column)}")
        return column[b - 1]

    def value(self, f: int, b: int) -> float:
        """Power in dBW for an assignment of b slots (f ignored)."""
        return self._at(self.by_slots_dbw, b)

    def watts(self, f: int, b: int) -> float:
        return self._at(self.by_slots_w, b)

    def carries(self, b: int) -> bool:
        """Whether some MODCOD carries the beam's demand in b slots."""
        return self._at(self.by_slots_carried, b)


def power_tables_for(
    beams: Sequence[Beam],
    grid: FrequencyGrid,
    link: LinkBudget,
    table: ModCodTable = DEFAULT_MODCODS,
    big_m: float = 1000.0,
) -> dict[int, PowerTable]:
    """Precompute power tables for every beam: the values beam_power gives
    at each width b * slot_bandwidth_hz. Widths that select the same MODCOD
    need the same power, so the chain runs once per MODCOD a beam uses."""
    efficiencies = [e.spectral_efficiency for e in table.entries]
    path_loss, noise_db = fspl_db(link.distance_m, link.carrier_hz), _noise_db(link)
    tables = {}
    for beam in beams:
        by_modcod: dict[int | None, tuple[float, float, bool]] = {}
        rows = []
        for b in range(1, grid.n_bw + 1):
            gamma_req = required_spectral_efficiency(beam.demand_bps, link.rolloff, b * grid.slot_bandwidth_hz)
            k = _modcod_index(efficiencies, gamma_req)
            if k not in by_modcod:
                if k is None:
                    by_modcod[k] = (big_m, 10.0 ** (big_m / 10.0), False)
                else:
                    _, dbw, watts = _carried_power(table.entries[k], beam.demand_bps, link, path_loss, noise_db)
                    by_modcod[k] = (dbw, watts, True)
            rows.append(by_modcod[k])
        dbw, watts, carried = zip(*rows)
        tables[beam.id] = PowerTable(beam.id, dbw, watts, carried)
    return tables

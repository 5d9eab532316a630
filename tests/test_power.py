"""Link-budget power model tests against an independent dB-chain oracle."""

import math

import numpy as np
import pytest

from freqplan import (
    DEFAULT_MODCODS,
    Beam,
    DomainError,
    FrequencyGrid,
    LinkBudget,
    ModCod,
    ModCodTable,
    beam_power,
    fspl_db,
    load_modcod_csv,
    power_tables_for,
    required_spectral_efficiency,
    select_modcod,
)

# independent physical constants for the oracle
K_B = 1.380649e-23
C = 299792458.0


def oracle_power_dbw(demand_bps, bw_hz, link, table):
    """Reference dB chain, written from scratch for comparison."""
    gamma = demand_bps * (1.0 + link.rolloff) / bw_hz
    mc = next((e for e in table.entries if e.spectral_efficiency >= gamma), None)
    if mc is None:
        return None
    cn0 = mc.ebn0_db + 10 * math.log10(demand_bps)
    fspl = 20 * math.log10(4 * math.pi * link.distance_m * link.carrier_hz / C)
    return (
        cn0
        + link.obo_db
        - link.g_tx_db
        - link.g_rx_db
        + fspl
        + 10 * math.log10(K_B * link.t_sys_k)
    )


class TestFspl:
    def test_reference_value(self):
        # 20*log10(4*pi*8062e3*19.7e9/c) recomputed independently
        expected = 20 * math.log10(4 * math.pi * 8062e3 * 19.7e9 / C)
        assert fspl_db(8062e3, 19.7e9) == pytest.approx(expected, abs=1e-12)
        assert 196 < expected < 197  # magnitude sanity band

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fspl_db(0.0, 1e9)


class TestSpectralEfficiency:
    def test_formula(self):
        assert required_spectral_efficiency(100e6, 0.1, 50e6) == pytest.approx(2.2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            required_spectral_efficiency(1.0, 0.1, 0.0)
        with pytest.raises(DomainError):
            required_spectral_efficiency(-1.0, 0.1, 1.0)


class TestModCodSelection:
    def test_picks_first_sufficient_entry(self):
        assert select_modcod(DEFAULT_MODCODS, 0.4).spectral_efficiency == 0.5
        assert select_modcod(DEFAULT_MODCODS, 0.5).spectral_efficiency == 0.5
        assert select_modcod(DEFAULT_MODCODS, 0.51).spectral_efficiency == 1.0
        assert select_modcod(DEFAULT_MODCODS, 5.5).spectral_efficiency == 5.5
        assert select_modcod(DEFAULT_MODCODS, 5.51) is None

    def test_table_ordering_enforced(self):
        with pytest.raises(DomainError):
            ModCodTable((ModCod("a", 1.0, 1.0), ModCod("b", 1.0, 2.0)))
        with pytest.raises(DomainError):
            ModCodTable((ModCod("a", 1.0, 3.0), ModCod("b", 2.0, 2.0)))


class TestBeamPower:
    LINK = LinkBudget()

    def test_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            link = LinkBudget(
                rolloff=float(rng.uniform(0.05, 0.35)),
                obo_db=float(rng.uniform(0.0, 3.0)),
                g_tx_db=float(rng.uniform(30, 60)),
                g_rx_db=float(rng.uniform(25, 50)),
                t_sys_k=float(rng.uniform(150, 600)),
                carrier_hz=float(rng.uniform(10e9, 30e9)),
                distance_m=float(rng.uniform(1e6, 4e7)),
            )
            demand = float(rng.uniform(1e6, 3e8))
            bw = float(rng.uniform(20e6, 4e8))
            expected = oracle_power_dbw(demand, bw, link, DEFAULT_MODCODS)
            got = beam_power(demand, bw, link, DEFAULT_MODCODS, big_m=1000.0)
            if expected is None:
                assert got.dbw == 1000.0
                assert not got.feasible
            else:
                assert got.dbw == pytest.approx(expected, abs=0.01)
                assert got.watts == pytest.approx(10 ** (expected / 10.0), rel=1e-6)

    def test_monotone_non_increasing_in_bandwidth(self):
        rng = np.random.default_rng(7)
        grid = FrequencyGrid(n_bw=20, n_fr=1, n_p=1, slot_bandwidth_hz=50e6)
        for _ in range(200):
            demand = float(rng.uniform(1e6, 5e9))
            prev = None
            for b in range(1, grid.n_bw + 1):
                p = beam_power(demand, b * grid.slot_bandwidth_hz, self.LINK,
                               DEFAULT_MODCODS, big_m=1000.0)
                if prev is not None:
                    assert p.dbw <= prev + 1e-9
                prev = p.dbw

    def test_sentinel_when_demand_exceeds_best_modcod(self):
        p = beam_power(1e12, 50e6, self.LINK, DEFAULT_MODCODS, big_m=777.0)
        assert p.dbw == 777.0
        assert p.modcod is None

    def test_zero_demand_floors_out(self):
        p = beam_power(0.0, 50e6, self.LINK, DEFAULT_MODCODS, big_m=1000.0)
        assert p.watts == 0.0
        assert p.feasible


class TestPowerTables:
    def test_table_lookup_ignores_position(self):
        beam = Beam(id=4, demand_bps=80e6)
        grid = FrequencyGrid(n_bw=8, n_fr=1, n_p=1, slot_bandwidth_hz=50e6)
        table = power_tables_for((beam,), grid, LinkBudget(), DEFAULT_MODCODS, 1000.0)[4]
        assert table.beam_id == 4
        assert len(table.by_slots_dbw) == grid.n_bw
        assert table.value(1, 3) == table.value(5, 3)
        direct = beam_power(80e6, 3 * 50e6, LinkBudget(), DEFAULT_MODCODS, 1000.0)
        assert table.value(1, 3) == pytest.approx(direct.dbw)
        assert table.watts(1, 3) == pytest.approx(direct.watts)

    @pytest.mark.parametrize("big_m", [1000.0, 612.5])
    @pytest.mark.parametrize("ladder", ["default", "csv"])
    def test_tables_equal_beam_power_at_every_width(self, tmp_path, ladder, big_m):
        table = DEFAULT_MODCODS
        if ladder == "csv":
            path = tmp_path / "modcods.csv"
            path.write_text("name,spectral_efficiency,ebn0_db\nA,0.3,-3.1\nB,0.95,0.7\nC,2.2,7.3\nD,3.7,12.9\n")
            table = load_modcod_csv(path)
        grid = FrequencyGrid(n_bw=40, n_fr=1, n_p=1, slot_bandwidth_hz=50e6)
        link = LinkBudget(rolloff=0.25, obo_db=1.5, t_sys_k=410.0)
        rng = np.random.default_rng(11)
        # demand 0, one no MODCOD carries at any width, then a spread
        demands = [0.0, 1e13, *np.exp(rng.uniform(math.log(1e5), math.log(2e10), 80)).tolist()]
        beams = [Beam(id=i, demand_bps=d) for i, d in enumerate(demands, start=1)]
        tables = power_tables_for(beams, grid, link, table, big_m)
        for beam in beams:
            direct = [
                beam_power(beam.demand_bps, b * grid.slot_bandwidth_hz, link, table, big_m)
                for b in range(1, grid.n_bw + 1)
            ]
            got = tables[beam.id]
            assert got.by_slots_dbw == tuple(p.dbw for p in direct)
            assert got.by_slots_w == tuple(p.watts for p in direct)
            assert got.by_slots_carried == tuple(p.feasible for p in direct)
        assert tables[1].by_slots_w == (0.0,) * grid.n_bw and all(tables[1].by_slots_carried)
        assert tables[2].by_slots_dbw == (big_m,) * grid.n_bw and not any(tables[2].by_slots_carried)

    @pytest.mark.parametrize("b", [0, -1, 9])
    def test_width_outside_the_grid_raises(self, b):
        grid = FrequencyGrid(n_bw=8, n_fr=1, n_p=1, slot_bandwidth_hz=50e6)
        table = power_tables_for((Beam(id=4, demand_bps=80e6),), grid, LinkBudget(), DEFAULT_MODCODS, 1000.0)[4]
        for lookup in (lambda: table.value(1, b), lambda: table.watts(1, b), lambda: table.carries(b)):
            with pytest.raises(DomainError, match=rf"beam 4: b={b} outside 1\.\.8"):
                lookup()

    def test_tables_for_all_beams(self):
        beams = [Beam(id=1, demand_bps=1e7), Beam(id=9, demand_bps=2e8)]
        grid = FrequencyGrid(n_bw=4, n_fr=1, n_p=1, slot_bandwidth_hz=50e6)
        tables = power_tables_for(beams, grid, LinkBudget())
        assert set(tables) == {1, 9}


class TestModcodCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "modcods.csv"
        path.write_text(
            "name,spectral_efficiency,ebn0_db\nA,1.0,2.0\nB,2.0,5.5\n"
        )
        table = load_modcod_csv(path)
        assert [e.name for e in table.entries] == ["A", "B"]
        assert table.entries[1].ebn0_db == 5.5

    @pytest.mark.parametrize(
        "body, where",
        [
            ("A,1.0,2.0\nB,abc,5.5\n", "line 3, column spectral_efficiency"),
            ("A,1.0\n", "line 2, column ebn0_db"),
        ],
    )
    def test_bad_number_names_line_and_column(self, tmp_path, body, where):
        path = tmp_path / "modcods.csv"
        path.write_text("name, spectral_efficiency, ebn0_db\n" + body)
        with pytest.raises(DomainError, match=where):
            load_modcod_csv(path)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "modcods.csv"
        path.write_text("name,gamma\nA,1.0\n")
        with pytest.raises(DomainError):
            load_modcod_csv(path)

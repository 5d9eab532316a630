"""Link-budget power model tests against an independent dB-chain oracle."""

import math
import tracemalloc

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
    PowerTable,
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

    @pytest.mark.parametrize(
        "efficiency, ebn0_db, problem",
        [
            (math.nan, 1.0, "spectral_efficiency must be positive and finite"),
            (math.inf, 1.0, "spectral_efficiency must be positive and finite"),
            (0.0, 1.0, "spectral_efficiency must be positive and finite"),
            (1.0, math.nan, "ebn0_db must be finite"),
            (1.0, -math.inf, "ebn0_db must be finite"),
        ],
    )
    def test_modcod_numbers_must_be_finite(self, efficiency, ebn0_db, problem):
        """A NaN efficiency compares false with every gamma_req and a
        non-finite Eb/N0 gives no finite power."""
        with pytest.raises(DomainError, match=f"x: {problem}"):
            ModCod("x", efficiency, ebn0_db)


class TestLinkBudget:
    @pytest.mark.parametrize(
        "name, value, problem",
        [
            ("rolloff", math.nan, "finite and >= 0"),
            ("rolloff", math.inf, "finite and >= 0"),
            ("rolloff", -0.1, "finite and >= 0"),
            ("obo_db", math.nan, "finite"),
            ("g_tx_db", math.inf, "finite"),
            ("g_rx_db", -math.inf, "finite"),
            ("t_sys_k", math.nan, "positive and finite"),
            ("t_sys_k", 0.0, "positive and finite"),
            ("carrier_hz", math.inf, "positive and finite"),
            ("carrier_hz", -1.0, "positive and finite"),
            ("distance_m", math.inf, "positive and finite"),
            ("distance_m", math.nan, "positive and finite"),
        ],
    )
    def test_rejects_non_finite_and_out_of_range_inputs(self, name, value, problem):
        """A NaN system temperature would give power tables of NaN, every
        width marked carried."""
        with pytest.raises(DomainError, match=f"{name} must be {problem}"):
            LinkBudget(**{name: value})

    def test_accepts_zero_rolloff_and_negative_gains(self):
        link = LinkBudget(rolloff=0.0, obo_db=-1.0, g_tx_db=-3.0, g_rx_db=0.0)
        assert link.rolloff == 0.0 and link.g_tx_db == -3.0


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
        assert table.watts(3) == pytest.approx(direct.watts)

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
            assert got.by_slots_dbw.tolist() == [p.dbw for p in direct]
            assert got.by_slots_w.tolist() == [p.watts for p in direct]
            assert got.by_slots_carried.tolist() == [p.feasible for p in direct]
        assert tables[1].by_slots_w.tolist() == [0.0] * grid.n_bw and all(tables[1].by_slots_carried)
        assert tables[2].by_slots_dbw.tolist() == [big_m] * grid.n_bw and not any(tables[2].by_slots_carried)

    def test_tables_are_read_only_rows_of_three_arrays(self):
        """power_tables_for's tables hold rows of one float64 dBW, one
        float64 W and one bool carried array over all the beams; no row can
        be written."""
        beams = [Beam(id=i, demand_bps=d) for i, d in ((3, 1e7), (1, 2e8), (8, 1e13))]
        grid = FrequencyGrid(n_bw=5, n_fr=1, n_p=1, slot_bandwidth_hz=50e6)
        tables = list(power_tables_for(beams, grid, LinkBudget()).values())
        assert [t.beam_id for t in tables] == [3, 1, 8]
        for column, dtype in (("by_slots_dbw", np.float64), ("by_slots_w", np.float64), ("by_slots_carried", bool)):
            rows = [getattr(t, column) for t in tables]
            assert all(row.dtype == dtype and row.shape == (5,) and not row.flags.writeable for row in rows)
            assert rows[0].base.shape == (3, 5) and all(row.base is rows[0].base for row in rows)
            with pytest.raises(ValueError):
                rows[0][0] = rows[0][1]

    def test_table_from_sequences_returns_python_scalars(self):
        """A table built from tuples holds them as read-only arrays, leaves a
        given array writeable, and its lookups return Python float and bool,
        as the trace and report CSVs print them."""
        given = np.array([0.5, 0.25])
        table = PowerTable(2, (1.5, -300.0), given, (True, False))
        assert table.by_slots_dbw.dtype == np.float64 and table.by_slots_carried.dtype == bool
        assert not table.by_slots_w.flags.writeable and given.flags.writeable
        assert [type(table.value(1, b)) for b in (1, 2)] == [float, float]
        assert [type(table.watts(b)) for b in (1, 2)] == [float, float]
        assert [type(table.carries(b)) for b in (1, 2)] == [bool, bool]
        assert (table.value(7, 2), table.watts(1), table.carries(1), table.carries(2)) == (-300.0, 0.5, True, False)
        assert repr(table.value(1, 1)) == "1.5"

    def test_table_from_sequences_reads_as_one_beams_columns(self):
        """A table from sequences holds one-row arrays: its columns are 1-D,
        equal to what was given, and a width past their length raises."""
        table = PowerTable(5, [1.0, 2.5, 4.0], np.array([1.25, 1.5, 2.0]), [True, True, False])
        columns = [table.by_slots_dbw, table.by_slots_w, table.by_slots_carried]
        assert [column.shape for column in columns] == [(3,)] * 3
        assert [column.tolist() for column in columns] == [[1.0, 2.5, 4.0], [1.25, 1.5, 2.0], [True, True, False]]
        assert (table.beam_id, table.value(2, 3), table.watts(3), table.carries(3)) == (5, 4.0, 2.0, False)
        for lookup in (lambda: table.value(1, 4), lambda: table.watts(0), lambda: table.carries(4)):
            with pytest.raises(DomainError, match=r"^beam 5: b=-?\d outside 1\.\.3$"):
                lookup()

    def test_tables_keep_no_per_beam_arrays(self):
        """Beyond their three shared arrays (17 B a beam and width), the
        tables of 1,312 beams keep at most 256 B of traced allocation a
        beam: the table, its row number and its dict entry. Three read-only
        row views and a dataclass with a __dict__ per beam kept about 580 B."""
        grid = FrequencyGrid(n_bw=40, n_fr=1, n_p=1, slot_bandwidth_hz=50e6)
        demands = np.exp(np.random.default_rng(5).uniform(math.log(1e7), math.log(2e9), 1312))
        beams = [Beam(id=i, demand_bps=d) for i, d in enumerate(demands.tolist(), start=1)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tables = power_tables_for(beams, grid, LinkBudget())
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        per_beam = (kept - 17 * grid.n_bw * len(beams)) / len(beams)
        print(f"power_tables_for: {per_beam:.0f} B a beam beyond the arrays")
        assert len(tables) == len(beams) and per_beam <= 256

    @pytest.mark.parametrize("b", [0, -1, 9])
    def test_width_outside_the_grid_raises(self, b):
        grid = FrequencyGrid(n_bw=8, n_fr=1, n_p=1, slot_bandwidth_hz=50e6)
        table = power_tables_for((Beam(id=4, demand_bps=80e6),), grid, LinkBudget(), DEFAULT_MODCODS, 1000.0)[4]
        for lookup in (lambda: table.value(1, b), lambda: table.watts(b), lambda: table.carries(b)):
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
            ("A,nan,2.0\n", "line 2, column spectral_efficiency: 'nan' is not a finite number"),
            ("A,1.0,2.0\nB,2.0,inf\n", "line 3, column ebn0_db: 'inf' is not a finite number"),
            ("A,1.0,-Infinity\n", "line 2, column ebn0_db"),
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

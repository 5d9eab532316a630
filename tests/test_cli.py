"""End-to-end CLI tests: commands, exit codes, determinism."""

import csv
import json
import xml.etree.ElementTree as ET
from dataclasses import fields, replace

import pytest

from freqplan import (
    Assignment,
    Beam,
    ConstellationGeometry,
    FrequencyGrid,
    FrequencyPlan,
    GenerationParams,
    IterationConfig,
    ObjectiveWeights,
    RestrictionSets,
    Scenario,
    ScenarioFormatError,
    iterative,
    load_plan_csv,
    milp,
    save_plan_csv,
    save_scenario,
    scenario as scen,
    solver,
    total_normalized_bandwidth,
)
from freqplan.cli import main
from freqplan.scenario import scenario_from_dict, scenario_to_dict


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scen.json"
    rc = main([
        "generate", "--seed", "1", "--users", "12",
        "--n-bw", "5", "--n-fr", "2", "--n-p", "2", "--n-s", "4",
        "--horizon-min", "10", "--lat-band", "-20", "20",
        "--out", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture()
def small_scenario_file(tmp_path):
    """A 3-beam scenario small enough for --mode full."""
    path = tmp_path / "small.json"
    assert main(["generate", "--seed", "4", "--users", "3",
                 "--n-bw", "3", "--n-fr", "1", "--n-p", "2", "--n-s", "4",
                 "--horizon-min", "5", "--lat-band", "-20", "20",
                 "--out", str(path)]) == 0
    return path


def plan_with_unknown_beam(tmp_path, scenario_file):
    """An optimized plan of ``scenario_file`` with a line for beam 999,
    which the scenario lacks."""
    path = tmp_path / "unknown.csv"
    assert main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                 "--out-plan", str(path)]) == 0
    with open(path, "a") as fh:
        fh.write("999,1,1,1,2\n")
    return path


def three_beams_on_one_cell(path):
    """Three pairwise-intra beams on a 1x1x1 grid: at most one fits, so the
    full model, which keeps every beam active, has no feasible point."""
    save_scenario(
        Scenario(
            grid=FrequencyGrid(n_bw=1, n_fr=1, n_p=1),
            beams=(Beam(id=1), Beam(id=2), Beam(id=3)),
            geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
            restrictions=RestrictionSets.of(intra=[(1, 2), (1, 3), (2, 3)]),
        ),
        path,
    )
    return path


class TestGenerate:
    def test_writes_scenario(self, scenario_file):
        assert scenario_file.exists()

    def test_rejects_zero_users(self, tmp_path):
        rc = main(["generate", "--seed", "1", "--users", "0",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 1

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["generate", "--seed", "-1", "--users", "6", "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--altitude-km", "--slot-bandwidth-hz", "--half-cone-deg"])
    def test_non_finite_geometry_exits_1(self, tmp_path, capsys, flag):
        """A NaN passed the library's `<= 0` checks, so generate exited 0
        with a NaN token that load_scenario then rejected."""
        out = tmp_path / "s.json"
        capsys.readouterr()
        assert main(["generate", "--seed", "1", "--users", "5", flag, "nan", "--out", str(out)]) == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be positive and finite, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("band", [("10", "-10"), ("80", "100")])
    def test_bad_latitude_band_exits_1(self, tmp_path, capsys, band):
        """A reversed band was a numpy traceback; one past a pole wrote
        beams at latitude 99."""
        out = tmp_path / "s.json"
        capsys.readouterr()
        assert main(["generate", "--seed", "1", "--users", "20", "--lat-band", *band, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lat_band_deg must satisfy") and err.count("\n") == 1
        assert not out.exists()

    def test_with_restrictions_flag_embeds_sets(self, tmp_path):
        path = tmp_path / "s.json"
        rc = main(["generate", "--seed", "2", "--users", "6",
                   "--horizon-min", "5", "--with-restrictions",
                   "--out", str(path)])
        assert rc == 0
        assert '"restrictions"' in path.read_text()

    def test_loading_restrictions_checks_their_ids_once(self, tmp_path, monkeypatch):
        """load_scenario checks a file's restriction ids in the Scenario it
        builds, and nowhere else."""
        path = tmp_path / "s.json"
        assert main(["generate", "--seed", "2", "--users", "6", "--horizon-min", "5",
                     "--with-restrictions", "--out", str(path)]) == 0
        calls = []
        real = RestrictionSets.check_ids
        monkeypatch.setattr(RestrictionSets, "check_ids", lambda *a: calls.append(1) or real(*a))
        assert scen.load_scenario(path).restrictions.pairs["intra"].size
        assert len(calls) == 1


class TestOptimize:
    @pytest.mark.parametrize("flag, value", [("--beta2", "nan"), ("--beta2", "inf"), ("--beta5", "-inf")])
    def test_non_finite_weight_exits_1(self, tmp_path, scenario_file, capsys, flag, value):
        """A NaN weight used to run to a plan that never moved (every
        comparison with NaN is false) and exit 0."""
        out = tmp_path / "plan.csv"
        capsys.readouterr()
        assert main(["optimize", str(scenario_file), f"{flag}={value}", "--n-ch", "4", "--window", "3",
                     "--out-plan", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag[2:]} must be finite, got {float(value)}\n"
        assert not out.exists()

    def test_iterative_run_produces_valid_outputs(self, tmp_path, scenario_file):
        plan = tmp_path / "plan.csv"
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.csv"
        rc = main([
            "optimize", str(scenario_file), "--mode", "iterative",
            "--n-ch", "4", "--seed", "0", "--window", "8",
            "--out-plan", str(plan), "--out-trace", str(trace),
            "--report", str(report),
        ])
        assert rc == 0
        assert main(["validate", str(plan), str(scenario_file)]) == 0
        assert trace.read_text().startswith(
            "iteration,objective,normalized_bw,beams_changed,wall_ms"
        )
        assert report.read_text().startswith("scenario,n_beams,mode,")

    def test_full_mode_small_scenario(self, tmp_path, small_scenario_file):
        scen = small_scenario_file
        plan = tmp_path / "plan.csv"
        rc = main(["optimize", str(scen), "--mode", "full",
                   "--out-plan", str(plan)])
        assert rc == 0
        assert main(["validate", str(plan), str(scen)]) == 0

    def test_full_mode_rejects_out_trace(self, tmp_path, small_scenario_file, capsys):
        """Full mode runs no iterations, so asking it for a trace is a usage
        error, not a run that silently writes none."""
        scen = small_scenario_file
        capsys.readouterr()
        trace, plan = tmp_path / "trace.csv", tmp_path / "plan.csv"
        rc = main(["optimize", str(scen), "--mode", "full",
                   "--out-trace", str(trace), "--out-plan", str(plan)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not trace.exists() and not plan.exists()

    def test_full_mode_checks_warm_start_beams(self, tmp_path, small_scenario_file, capsys):
        """A full-mode warm start may omit beams but not name one the
        scenario lacks, as in the iterative mode."""
        scen = small_scenario_file
        warm = tmp_path / "warm.csv"
        assert main(["optimize", str(scen), "--mode", "full", "--out-plan", str(warm)]) == 0
        header, first, *_ = warm.read_text().splitlines(keepends=True)
        partial = tmp_path / "partial.csv"
        partial.write_text(header + first)
        assert main(["optimize", str(scen), "--mode", "full", "--warm-start", str(partial),
                     "--out-plan", str(tmp_path / "from-partial.csv")]) == 0

        with open(warm, "a") as fh:
            fh.write("999,1,1,1,2\n")
        capsys.readouterr()
        rc = main(["optimize", str(scen), "--mode", "full", "--warm-start", str(warm),
                   "--out-plan", str(tmp_path / "out.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: plan names unknown beams [999]\n"
        assert not (tmp_path / "out.csv").exists()

    def test_full_mode_report_warm_figures_are_the_start(self, tmp_path):
        """The full-mode report's warm figures are those of the start the
        iterative mode begins from: the greedy one, or the repaired
        --warm-start file. Full mode takes no beta4, so the power figures
        are empty."""
        scenario = Scenario(
            grid=FrequencyGrid(n_bw=3, n_fr=1, n_p=2),
            beams=(Beam(id=1), Beam(id=2), Beam(id=3)),
            geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
            restrictions=RestrictionSets.of(intra=[(1, 2)]),
        )
        scen = tmp_path / "s.json"
        save_scenario(scenario, scen)
        warm = tmp_path / "warm.csv"  # beams 1 and 2 collide: the repair drops 2
        save_plan_csv(FrequencyPlan({i: Assignment(1, 1, 2) for i in (1, 2, 3)}), warm)
        starts = [
            ([], iterative.greedy_warm_start(scenario, scenario.restrictions)),
            (["--warm-start", str(warm)],
             iterative.sanitize_warm_start(load_plan_csv(warm), scenario, scenario.restrictions)),
        ]
        figures = []
        for flags, start in starts:
            report = tmp_path / "report.csv"
            assert main(["optimize", str(scen), "--mode", "full", *flags,
                         "--out-plan", str(tmp_path / "plan.csv"), "--report", str(report)]) == 0
            row = next(csv.DictReader(report.read_text().splitlines()))
            figures.append([row["bw_warm"], row["power_warm_w"], row["uncarried_warm"]])
            bw = total_normalized_bandwidth(start, scenario.grid, scenario.geometry.n_s)
            assert figures[-1] == [repr(bw), "", ""]
        assert figures[0] != figures[1]

    def test_full_mode_without_feasible_point_exits_3(self, tmp_path, capsys):
        scen = three_beams_on_one_cell(tmp_path / "crowded.json")
        plan = tmp_path / "plan.csv"
        capsys.readouterr()
        rc = main(["optimize", str(scen), "--mode", "full", "--out-plan", str(plan)])
        assert rc == 3
        assert capsys.readouterr().err == "solver status: infeasible\n"
        assert not plan.exists()

    @pytest.mark.parametrize("budget", [0, 7, 2000])
    def test_full_mode_passes_node_budget_to_solve_exact(self, tmp_path, small_scenario_file,
                                                         monkeypatch, budget):
        seen, solve_exact = [], solver.solve_exact

        def spy(model, limits=solver.SolveLimits()):
            seen.append(limits)
            return solve_exact(model, limits)

        monkeypatch.setattr(solver, "solve_exact", spy)
        flags = [] if budget == 2000 else ["--node-budget", str(budget)]  # 2000 is the default
        main(["optimize", str(small_scenario_file), "--mode", "full", *flags,
              "--out-plan", str(tmp_path / "plan.csv")])
        assert seen == [solver.SolveLimits(max_nodes=budget)]

    def test_full_mode_stopped_without_plan_exits_3(self, tmp_path, capsys):
        """The default budget of 2,000 nodes stops the exact search of a
        30-beam file before it finds a plan."""
        scen, plan = tmp_path / "b.json", tmp_path / "plan.csv"
        assert main(["generate", "--seed", "7", "--users", "30", "--n-bw", "6", "--n-fr", "2",
                     "--out", str(scen)]) == 0
        capsys.readouterr()
        assert main(["optimize", str(scen), "--mode", "full", "--out-plan", str(plan)]) == 3
        assert capsys.readouterr().err == "solver status: limit-reached\n"
        assert not plan.exists()

    def test_full_mode_stopped_with_plan_writes_it(self, tmp_path, small_scenario_file, capsys):
        """12 nodes reach a first plan of the 3-beam file but not the proof
        of its optimality (the exact search needs more): the run writes the
        plan, notes on stderr that it is only feasible, and exits 0."""
        plan = tmp_path / "plan.csv"
        capsys.readouterr()
        assert main(["optimize", str(small_scenario_file), "--mode", "full", "--node-budget", "12",
                     "--out-plan", str(plan)]) == 0
        assert capsys.readouterr().err == "solver status: feasible\n"
        assert main(["validate", str(plan), str(small_scenario_file)]) == 0

    def test_report_without_warm_bandwidth_has_no_increase(self, tmp_path, capsys):
        """An all-inactive warm start has normalized bandwidth 0, so there is
        no increase to report: the CSV field is empty and the summary leaves
        the line out."""
        scen = three_beams_on_one_cell(tmp_path / "crowded.json")
        warm, report = tmp_path / "warm.csv", tmp_path / "report.csv"
        save_plan_csv(FrequencyPlan({i: Assignment.inactive() for i in (1, 2, 3)}), warm)
        capsys.readouterr()
        assert main(["optimize", str(scen), "--n-ch", "3", "--window", "2", "--warm-start", str(warm),
                     "--out-plan", str(tmp_path / "plan.csv"), "--report", str(report)]) == 0
        row = next(csv.DictReader(report.read_text().splitlines()))
        assert float(row["bw_warm"]) == 0.0 and float(row["bw_final"]) > 0.0
        assert row["bw_increase_pct"] == ""
        out = capsys.readouterr().out
        assert "normalized BW:   warm 0.0000 -> final" in out
        assert "BW increase" not in out

    def test_report_quotes_a_scenario_path_with_a_comma(self, tmp_path, scenario_file):
        """The scenario path is the report's first field: one with a comma
        used to write a 12-field row under the 11-field header."""
        scen = tmp_path / "a,b" / "s.json"
        scen.parent.mkdir()
        scen.write_bytes(scenario_file.read_bytes())
        report = tmp_path / "report.csv"
        assert main(["optimize", str(scen), "--max-iterations", "3",
                     "--out-plan", str(tmp_path / "plan.csv"), "--report", str(report)]) == 0
        with open(report, newline="") as fh:
            header, row = csv.reader(fh)
        assert len(header) == len(row) == 11
        assert row[0] == str(scen)

    def test_warm_start_file_replaces_greedy(self, tmp_path, scenario_file, monkeypatch):
        first = tmp_path / "first.csv"
        assert main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                     "--out-plan", str(first)]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("greedy warm start built although a warm start was given")

        monkeypatch.setattr(iterative, "greedy_warm_start", fail)
        monkeypatch.setattr(iterative, "_first_fit", fail)
        plan = tmp_path / "plan.csv"
        rc = main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                   "--warm-start", str(first), "--out-plan", str(plan)])
        assert rc == 0
        assert main(["validate", str(plan), str(scenario_file)]) == 0

    def test_start_is_validated_once(self, tmp_path, scenario_file, monkeypatch):
        """The iterative mode validates no start of its own making (the
        greedy one is valid by construction) and repairs a --warm-start file
        once, in iterative.optimize."""
        calls = []
        real = iterative.validate_plan
        monkeypatch.setattr(iterative, "validate_plan", lambda *a: calls.append(1) or real(*a))
        first = tmp_path / "first.csv"
        assert main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                     "--beta4", "0.05", "--out-plan", str(first)]) == 0
        assert len(calls) == 0
        assert main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                     "--beta4", "0.05", "--warm-start", str(first),
                     "--out-plan", str(tmp_path / "plan.csv")]) == 0
        assert len(calls) == 1

    def test_iterative_run_checks_no_derived_pairs(self, tmp_path, scenario_file, monkeypatch):
        """Restriction sets the run derives itself from the scenario's beams
        name only those beams, so no RestrictionSets.check_ids runs over
        them."""
        calls = []
        real = RestrictionSets.check_ids
        monkeypatch.setattr(RestrictionSets, "check_ids", lambda *a: calls.append(1) or real(*a))
        assert '"restrictions"' not in scenario_file.read_text()
        assert main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                     "--out-plan", str(tmp_path / "plan.csv")]) == 0
        assert calls == []

    @pytest.mark.parametrize("width", [0, 6], ids=["width-0", "past-the-grid"])
    def test_warm_start_width_outside_the_grid_is_repaired(self, tmp_path, scenario_file, width):
        """A warm-start row whose width lies outside 1..n_bw (5 here) is
        deactivated by the optimizer's repair, and the report's warm figures
        are those of the repaired start: no power lookup wraps to the widest
        width (b=0) or fails (b=6)."""
        first = tmp_path / "first.csv"
        assert main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                     "--out-plan", str(first)]) == 0
        header, row, *rest = first.read_text().splitlines(keepends=True)
        beam, active, *_ = row.split(",")
        assert active == "1"
        reports = []
        for name, line in (("outside", f"{beam},1,1,1,{width}\n"), ("inactive", f"{beam},0,0,0,0\n")):
            warm, report = tmp_path / f"{name}.csv", tmp_path / f"{name}-report.csv"
            warm.write_text(header + line + "".join(rest))
            assert main(["optimize", str(scenario_file), "--beta4", "0.05", "--n-ch", "4", "--window", "3",
                         "--warm-start", str(warm), "--out-plan", str(tmp_path / f"{name}-plan.csv"),
                         "--report", str(report)]) == 0
            reports.append(next(csv.DictReader(report.read_text().splitlines())))
        warm_figures = ("bw_warm", "power_warm_w", "uncarried_warm")
        assert [reports[0][k] for k in warm_figures] == [reports[1][k] for k in warm_figures]
        assert (tmp_path / "outside-plan.csv").read_text() == (tmp_path / "inactive-plan.csv").read_text()

    def test_unroutable_beam_is_infeasible(self, tmp_path, capsys):
        path = tmp_path / "pole.json"
        save_scenario(
            Scenario(
                grid=FrequencyGrid(n_bw=4, n_fr=1, n_p=2),
                beams=(Beam(id=1, lat=89.0, lon=0.0),),
                geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
                horizon_min=5, step_min=5,
            ),
            path,
        )
        rc = main(["optimize", str(path), "--out-plan", str(tmp_path / "p.csv")])
        assert rc == 3
        assert "no visible satellite" in capsys.readouterr().err

    def test_power_report_counts_uncarried_beams_apart(self, tmp_path, capsys):
        scen = tmp_path / "demand.json"
        save_scenario(
            Scenario(
                grid=FrequencyGrid(n_bw=4, n_fr=1, n_p=2, slot_bandwidth_hz=50e6),
                # no MODCOD carries 1e13 bps in 4 slots: its power is the sentinel
                beams=(Beam(id=1, demand_bps=1e7), Beam(id=2, demand_bps=1e13)),
                geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
                restrictions=RestrictionSets(),
            ),
            scen,
        )
        report = tmp_path / "report.csv"
        assert main(["optimize", str(scen), "--beta4", "0.05", "--n-ch", "2", "--window", "3",
                     "--out-plan", str(tmp_path / "plan.csv"), "--report", str(report)]) == 0
        row = next(csv.DictReader(report.read_text().splitlines()))
        assert (row["uncarried_warm"], row["uncarried_final"]) == ("1", "1")
        assert 0 < float(row["power_warm_w"]) < 1e3
        assert 0 < float(row["power_final_w"]) < 1e3
        assert "uncarried beams: warm 1 -> final 1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [("--n-ch", "0"), ("--top-per-bw", "0"), ("--window", "0"), ("--node-budget", "-1"),
         ("--seed", "-1"), ("--max-iterations", "-3")],
    )
    def test_invalid_optimizer_flag_exits_1(self, tmp_path, scenario_file, capsys, flag, value):
        capsys.readouterr()
        rc = main(["optimize", str(scenario_file), flag, value, "--out-plan", str(tmp_path / "p.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("weights", [[], ["--beta4", "0.05"]])
    def test_warm_start_naming_an_unknown_beam_exits_1(self, tmp_path, scenario_file, capsys, weights):
        warm = plan_with_unknown_beam(tmp_path, scenario_file)
        capsys.readouterr()
        rc = main(["optimize", str(scenario_file), "--warm-start", str(warm), *weights,
                   "--out-plan", str(tmp_path / "out.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: plan names unknown beams [999]\n"
        assert not (tmp_path / "out.csv").exists()

    def test_missing_scenario_is_usage_error(self, tmp_path):
        rc = main(["optimize", str(tmp_path / "nope.json"),
                   "--out-plan", str(tmp_path / "p.csv")])
        assert rc == 1


class TestValidate:
    def test_invalid_plan_exits_2(self, tmp_path, scenario_file, capsys):
        plan_path = tmp_path / "plan.csv"
        rc = main([
            "optimize", str(scenario_file), "--n-ch", "4", "--window", "5",
            "--out-plan", str(plan_path),
        ])
        assert rc == 0
        plan = load_plan_csv(plan_path)
        # push one active beam out of the spectrum
        broken = dict(plan.assignments)
        beam_id, a = next(iter(
            (i, x) for i, x in broken.items() if x.active
        ))
        broken[beam_id] = Assignment(f=100, g=a.g, b=a.b)
        save_plan_csv(FrequencyPlan(broken), plan_path)
        rc = main(["validate", str(plan_path), str(scenario_file)])
        assert rc == 2
        assert "spectrum-bound" in capsys.readouterr().out

    def test_plan_naming_an_unknown_beam_exits_1(self, tmp_path, scenario_file, capsys):
        plan = plan_with_unknown_beam(tmp_path, scenario_file)
        capsys.readouterr()
        assert main(["validate", str(plan), str(scenario_file)]) == 1
        assert capsys.readouterr().err == "error: plan names unknown beams [999]\n"

    def test_plan_repeating_a_beam_id_exits_1(self, tmp_path, capsys):
        """The repeated row used to replace the first one, so this file
        loaded as two inactive beams and validated as valid."""
        scen = tmp_path / "two.json"
        save_scenario(
            Scenario(
                grid=FrequencyGrid(n_bw=4, n_fr=1, n_p=1),
                beams=(Beam(id=1), Beam(id=2)),
                geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
            ),
            scen,
        )
        plan = tmp_path / "plan.csv"
        plan.write_text("beam_id,active,f,g,b\n1,1,1,1,2\n2,0,0,0,0\n1,0,0,0,0\n")
        assert main(["validate", str(plan), str(scen)]) == 1
        assert capsys.readouterr().err == "error: line 4: repeated beam id 1\n"

    def test_row_below_one_under_inter_pair_exits_2(self, tmp_path, capsys):
        scen = tmp_path / "pair.json"
        save_scenario(
            Scenario(
                grid=FrequencyGrid(n_bw=4, n_fr=1, n_p=2),
                beams=(Beam(id=1), Beam(id=2)),
                geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
                restrictions=RestrictionSets.of(inter=[(1, 2)]),
            ),
            scen,
        )
        plan = tmp_path / "plan.csv"
        save_plan_csv(FrequencyPlan({1: Assignment(1, 0, 1), 2: Assignment(3, 1, 1)}), plan)
        assert main(["validate", str(plan), str(scen)]) == 2
        assert "domain[1] g=0 outside rows [1,2]" in capsys.readouterr().out


class TestMalformedScenario:
    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d["grid"].update(n_bw="abc"), "grid.n_bw"),
            (lambda d: d["beams"][0].update(lat="north"), "beams[0].lat"),
            (lambda d: d["beams"][0].update(lat=10**400), "beams[0].lat"),
            (lambda d: d.update(beams=5), "beams"),
            (lambda d: d["beams"][0].update(allowed_rows=[1]), "beams[0].allowed_rows"),
            (lambda d: d.update(restrictions={"intra": [[1, 2, 3]]}), "restrictions.intra[0]"),
            (lambda d: d["sim"].update(step_min="x"), "sim.step_min"),
            (lambda d: d.update(link={"rolloff": "x"}), "link.rolloff"),
            (lambda d: d.update(restrictions={"inter": [[1, 9]]}), "restrictions"),
            (lambda d: d["beams"][0].update(id=1.5), "beams[0].id"),
            (lambda d: d["beams"][0].update(min_slots=2.5), "beams[0].min_slots"),
            (lambda d: d.update(link="fast"), "link"),
            (lambda d: d["beams"][0].update(kind=7), "beams[0].kind"),
            (lambda d: d.update(grid=[4, 1, 2]), "grid"),
            pytest.param(lambda d: d.update(beams=[]), "beams", id="no-beams"),
            pytest.param(lambda d: d["beams"][1].update(id=1), "beams", id="duplicate-id"),
            pytest.param(lambda d: d["beams"][0].update(allowed_rows=[1, 9]), "beams[0].allowed_rows",
                         id="rows-outside-grid"),
            pytest.param(lambda d: d["beams"][1].update(allowed_slots=[3, 2]), "beams[1].allowed_slots",
                         id="slots-reversed"),
            pytest.param(lambda d: d["beams"][1].update(allowed_slots=[0, 2]), "beams[1].allowed_slots",
                         id="slots-below-1"),
            pytest.param(lambda d: d["geometry"].update(altitude_km=float("nan")), "geometry.altitude_km",
                         id="nan-altitude"),
            pytest.param(lambda d: d["sim"].update(horizon_min=float("inf")), "sim.horizon_min",
                         id="infinite-horizon"),
            pytest.param(lambda d: d.update(restrictions={"intra": [[1, 2**63]]}), "restrictions.intra[0]",
                         id="id-past-int64"),
            pytest.param(lambda d: d.update(restrictions={"inter": [[1, 2], [-2**63 - 1, 2]]}),
                         "restrictions.inter[1]", id="id-below-int64"),
        ],
    )
    def test_exits_1_with_field_path(self, tmp_path, capsys, mutate, field):
        doc = scenario_to_dict(Scenario(
            grid=FrequencyGrid(n_bw=4, n_fr=1, n_p=2),
            beams=(Beam(id=1), Beam(id=2, lon=30.0)),
            geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
        ))
        mutate(doc)
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert err.value.field == field

        scen, plan = tmp_path / "bad.json", tmp_path / "plan.csv"
        scen.write_text(json.dumps(doc))
        save_plan_csv(FrequencyPlan({1: Assignment(1, 1, 1), 2: Assignment(2, 1, 1)}), plan)
        for argv in (["validate", str(plan), str(scen)],
                     ["emit-lp", str(scen), "--out", str(tmp_path / "m.lp")]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {field}: ")
            assert captured.err.count("\n") == 1
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "span, message", [([3, 2], "range [3, 2] is reversed"), ([2, 5], "range [2, 5] outside 1..4")]
    )
    def test_slot_range_checked_against_grid(self, span, message):
        doc = scenario_to_dict(Scenario(
            grid=FrequencyGrid(n_bw=4, n_fr=1, n_p=2),
            beams=(Beam(id=1, allowed_slots=tuple(span)),),
            geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
        ))
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == f"beams[0].allowed_slots: {message}"


class TestEmitLp:
    def test_writes_lp_and_is_deterministic(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        assert main(["emit-lp", str(scenario_file), "--out", str(a)]) == 0
        assert main(["emit-lp", str(scenario_file), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("Maximize\n")
        assert text.rstrip().endswith("End")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_weight_exits_1(self, tmp_path, scenario_file, capsys, value):
        lp = tmp_path / "x.lp"
        capsys.readouterr()
        assert main(["emit-lp", str(scenario_file), f"--beta2={value}", "--out", str(lp)]) == 1
        assert capsys.readouterr().err == f"error: beta2 must be finite, got {float(value)}\n"
        assert not lp.exists()

    def test_activation_flag_adds_binaries(self, tmp_path, scenario_file):
        base, act = tmp_path / "base.lp", tmp_path / "act.lp"
        main(["emit-lp", str(scenario_file), "--out", str(base)])
        main(["emit-lp", str(scenario_file), "--activation", "--out", str(act)])
        assert "a_1" not in base.read_text()
        assert "a_1" in act.read_text()


class TestRender:
    def test_one_svg_per_satellite(self, tmp_path, scenario_file):
        plan = tmp_path / "plan.csv"
        main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "5",
              "--out-plan", str(plan)])
        prefix = str(tmp_path / "grid")
        assert main(["render", str(plan), str(scenario_file),
                     "--out-prefix", prefix]) == 0
        for sat in (1, 2, 3, 4):
            svg = tmp_path / f"grid_sat{sat}.svg"
            assert svg.exists()
            root = ET.fromstring(svg.read_text())
            assert root.tag.endswith("svg")

    def test_plan_naming_an_unknown_beam_exits_1(self, tmp_path, scenario_file, capsys):
        plan = plan_with_unknown_beam(tmp_path, scenario_file)
        capsys.readouterr()
        assert main(["render", str(plan), str(scenario_file), "--out-prefix", str(tmp_path / "grid")]) == 1
        assert capsys.readouterr().err == "error: plan names unknown beams [999]\n"
        assert not list(tmp_path.glob("grid_sat*.svg"))

    def test_plan_missing_a_beam_exits_1(self, tmp_path, scenario_file, capsys):
        plan = tmp_path / "plan.csv"
        assert main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                     "--out-plan", str(plan)]) == 0
        header, first, *rest = plan.read_text().splitlines(keepends=True)
        plan.write_text("".join([header, *rest]))
        capsys.readouterr()
        assert main(["render", str(plan), str(scenario_file), "--out-prefix", str(tmp_path / "grid")]) == 1
        assert capsys.readouterr().err == f"error: plan missing beams [{first.split(',')[0]}]\n"
        assert not list(tmp_path.glob("grid_sat*.svg"))


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path, scenario_file):
        outs = []
        for tag in ("x", "y"):
            plan = tmp_path / f"plan_{tag}.csv"
            trace = tmp_path / f"trace_{tag}.csv"
            rc = main([
                "optimize", str(scenario_file), "--n-ch", "4", "--seed", "3",
                "--window", "6", "--out-plan", str(plan),
                "--out-trace", str(trace),
            ])
            assert rc == 0
            outs.append((plan.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]


class TestFlagDefaults:
    """Each flag that sets a library field defaults to that field's
    dataclass default and reaches the field it names."""

    @staticmethod
    def spy(monkeypatch, module, name):
        """Record the positional and keyword arguments of each call to
        ``module.name``, then make the call."""
        calls, real = [], getattr(module, name)

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, record)
        return calls

    def test_optimize_defaults_are_the_library_defaults(self, tmp_path, scenario_file, monkeypatch):
        calls = self.spy(monkeypatch, iterative, "optimize")
        assert main(["optimize", str(scenario_file), "--out-plan", str(tmp_path / "p.csv")]) == 0
        [(args, kwargs)] = calls
        assert args[2] == ObjectiveWeights()
        assert kwargs["config"] == IterationConfig()

    def test_emit_lp_default_weights_are_the_library_defaults(self, tmp_path, scenario_file, monkeypatch):
        calls = self.spy(monkeypatch, milp, "build_full_model")
        assert main(["emit-lp", str(scenario_file), "--out", str(tmp_path / "m.lp")]) == 0
        [(args, _)] = calls
        assert args[2] == ObjectiveWeights()

    def test_generate_defaults_are_the_library_defaults(self, tmp_path, monkeypatch):
        calls = self.spy(monkeypatch, scen, "generate_synthetic")
        out = tmp_path / "s.json"
        assert main(["generate", "--seed", "1", "--users", "5", "--out", str(out)]) == 0
        [(_, kwargs)] = calls
        assert kwargs["params"] == GenerationParams()
        written = scen.load_scenario(out)
        defaults = {f.name: f.default for f in fields(Scenario)}  # a slotted class keeps no defaults
        for name in ("horizon_min", "step_min", "half_cone_deg"):
            assert getattr(written, name) == defaults[name]

    @pytest.mark.parametrize(
        "flag, field, value",
        [("--n-ch", "n_ch", 3), ("--seed", "seed", 5), ("--top-per-bw", "top_per_bandwidth", 4),
         ("--window", "convergence_window", 2), ("--max-iterations", "max_iterations", 7),
         ("--node-budget", "node_budget", 11)],
    )
    def test_optimizer_flag_reaches_its_field(self, tmp_path, scenario_file, monkeypatch, flag, field, value):
        calls = self.spy(monkeypatch, iterative, "optimize")
        assert main(["optimize", str(scenario_file), flag, str(value),
                     "--out-plan", str(tmp_path / "p.csv")]) == 0
        [(_, kwargs)] = calls
        assert kwargs["config"] == replace(IterationConfig(), **{field: value})

    def test_report_header_is_pinned(self, tmp_path, scenario_file):
        """Renaming a report field renames its column, so the header is
        stated here in full."""
        report = tmp_path / "report.csv"
        assert main(["optimize", str(scenario_file), "--max-iterations", "2",
                     "--out-plan", str(tmp_path / "p.csv"), "--report", str(report)]) == 0
        assert report.read_text().splitlines()[0] == (
            "scenario,n_beams,mode,bw_warm,bw_final,bw_increase_pct,"
            "power_warm_w,power_final_w,uncarried_warm,uncarried_final,iterations"
        )


class TestUsage:
    def test_unknown_flag_exits_1(self, tmp_path):
        assert main(["generate", "--bogus", "1"]) == 1

    def test_missing_subcommand_exits_1(self):
        assert main([]) == 1

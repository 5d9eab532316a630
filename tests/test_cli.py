"""End-to-end CLI tests: commands, exit codes, determinism."""

import csv
import json
import xml.etree.ElementTree as ET

import pytest

from freqplan import (
    Assignment,
    Beam,
    ConstellationGeometry,
    FrequencyGrid,
    FrequencyPlan,
    RestrictionSets,
    Scenario,
    ScenarioFormatError,
    iterative,
    load_plan_csv,
    save_plan_csv,
    save_scenario,
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

    def test_with_restrictions_flag_embeds_sets(self, tmp_path):
        path = tmp_path / "s.json"
        rc = main(["generate", "--seed", "2", "--users", "6",
                   "--horizon-min", "5", "--with-restrictions",
                   "--out", str(path)])
        assert rc == 0
        assert '"restrictions"' in path.read_text()


class TestOptimize:
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

    def test_full_mode_without_feasible_point_exits_3(self, tmp_path, capsys):
        scen = three_beams_on_one_cell(tmp_path / "crowded.json")
        plan = tmp_path / "plan.csv"
        capsys.readouterr()
        rc = main(["optimize", str(scen), "--mode", "full", "--out-plan", str(plan)])
        assert rc == 3
        assert capsys.readouterr().err == "solver status: infeasible\n"
        assert not plan.exists()

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

    def test_warm_start_file_replaces_greedy(self, tmp_path, scenario_file, monkeypatch):
        first = tmp_path / "first.csv"
        assert main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                     "--out-plan", str(first)]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("greedy warm start built although a warm start was given")

        monkeypatch.setattr(iterative, "greedy_warm_start", fail)
        plan = tmp_path / "plan.csv"
        rc = main(["optimize", str(scenario_file), "--n-ch", "4", "--window", "3",
                   "--warm-start", str(first), "--out-plan", str(plan)])
        assert rc == 0
        assert main(["validate", str(plan), str(scenario_file)]) == 0

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


class TestUsage:
    def test_unknown_flag_exits_1(self, tmp_path):
        assert main(["generate", "--bogus", "1"]) == 1

    def test_missing_subcommand_exits_1(self):
        assert main([]) == 1

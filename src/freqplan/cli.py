"""Batch command-line front end.

Subcommands: generate, optimize, validate, emit-lp, render. Exit codes:
0 success/valid, 1 usage error, 2 validation failure, 3 infeasible or
limit reached (including a beam that no satellite sees, so that no plan
exists). All randomness is seeded through explicit flags.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

from . import iterative, milp, power, render, scenario as scen, solver
from .errors import FreqplanError, RoutingError
from .iterative import IterationConfig
from .model import (
    FrequencyGrid,
    FrequencyPlan,
    ObjectiveWeights,
    check_plan_beams,
    load_plan_csv,
    save_plan_csv,
    total_normalized_bandwidth,
    validate_plan,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise UsageError(message)


@dataclass
class RunReport:
    """One optimize run: one field per report column, in column order."""

    scenario: str
    n_beams: int
    mode: str
    bw_warm: float
    bw_final: float
    bw_increase_pct: float | None  # None when the start has no bandwidth
    power_warm_w: float | None  # carried beams only
    power_final_w: float | None
    uncarried_warm: int | None  # active beams no MODCOD carries
    uncarried_final: int | None
    iterations: int

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")  # None is written as an empty field
            writer.writerow([f.name for f in fields(self)])
            writer.writerow(astuple(self))

    def summary(self, wall_seconds: float) -> str:
        lines = [
            f"scenario:        {self.scenario} ({self.n_beams} beams)",
            f"mode:            {self.mode}",
            f"normalized BW:   warm {self.bw_warm:.4f} -> final {self.bw_final:.4f}",
        ]
        if self.bw_increase_pct is not None:
            lines.append(f"BW increase:     {self.bw_increase_pct:.1f}%")
        if self.power_warm_w is not None and self.power_final_w is not None:
            lines += [
                f"total power:     warm {self.power_warm_w:.3f} W -> final {self.power_final_w:.3f} W"
                " (carried beams)",
                f"uncarried beams: warm {self.uncarried_warm} -> final {self.uncarried_final}",
            ]
        lines.append(f"iterations:      {self.iterations}")
        lines.append(f"wall time:       {wall_seconds:.2f} s")
        return "\n".join(lines) + "\n"


def _fill(cls, args):
    """``cls`` with each field read from the parsed flag of its name; a
    ``nargs`` flag's list is passed as a tuple."""
    values = {f.name: getattr(args, f.name) for f in fields(cls)}
    return cls(**{name: tuple(v) if isinstance(v, list) else v for name, v in values.items()})


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(ObjectiveWeights):
        p.add_argument(f"--{f.name}", type=float, default=f.default)


def _power_w(plan: FrequencyPlan, tables) -> tuple[float, int]:
    """Total power of the active beams some MODCOD carries, and the count of
    active beams none carries (their power is the big_m sentinel)."""
    active = [(tables[i], a) for i, a in plan.active_items()]
    carried = [t.watts(a.b) for t, a in active if t.carries(a.b)]
    return sum(carried), len(active) - len(carried)


def build_parser() -> _Parser:
    parser = _Parser(prog="freqplan", description="Frequency plan design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic scenario file")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--users", type=int, required=True)
    g.add_argument("--n-bw", type=int, default=40)
    g.add_argument("--n-fr", type=int, default=8)
    g.add_argument("--n-p", type=int, default=2)
    g.add_argument("--slot-bandwidth-hz", type=float, default=50e6)
    g.add_argument("--n-s", type=int, default=7)
    g.add_argument("--altitude-km", type=float, default=8062.0)
    g.add_argument("--half-cone-deg", type=float, default=scen.SCENARIO_DEFAULTS["half_cone_deg"])
    g.add_argument("--lat-band", dest="lat_band_deg", type=float, nargs=2,
                   default=scen.GenerationParams.lat_band_deg,
                   metavar=("LO", "HI"), help="user latitude band in degrees")
    g.add_argument("--horizon-min", type=float, default=scen.SCENARIO_DEFAULTS["horizon_min"])
    g.add_argument("--step-min", type=float, default=scen.SCENARIO_DEFAULTS["step_min"])
    g.add_argument("--with-restrictions", action="store_true",
                   help="derive and embed R_A/R_E in the file")
    g.add_argument("--out", type=Path, required=True)

    o = sub.add_parser("optimize", help="optimize a frequency plan")
    o.add_argument("scenario", type=Path)
    o.add_argument("--mode", choices=["full", "iterative"], default="iterative")
    o.add_argument("--warm-start", type=Path, default=None)
    _add_weight_flags(o)
    o.add_argument("--n-ch", type=int, default=IterationConfig.n_ch)
    o.add_argument("--seed", type=int, default=IterationConfig.seed)
    o.add_argument("--top-per-bw", dest="top_per_bandwidth", type=int,
                   default=IterationConfig.top_per_bandwidth, metavar="TOP_PER_BW")
    o.add_argument("--window", dest="convergence_window", type=int,
                   default=IterationConfig.convergence_window, metavar="WINDOW")
    o.add_argument("--max-iterations", type=int, default=IterationConfig.max_iterations)
    o.add_argument("--node-budget", type=int, default=IterationConfig.node_budget,
                   help="search node cap, per subproblem component in iterative mode "
                        "and for the whole search in full mode; 0 = exact")
    o.add_argument("--out-plan", type=Path, required=True)
    o.add_argument("--out-trace", type=Path, default=None)
    o.add_argument("--report", type=Path, default=None)

    v = sub.add_parser("validate", help="validate a plan against a scenario")
    v.add_argument("plan", type=Path)
    v.add_argument("scenario", type=Path)

    e = sub.add_parser("emit-lp", help="emit the full model as an LP file")
    e.add_argument("scenario", type=Path)
    e.add_argument("--activation", action="store_true")
    _add_weight_flags(e)
    e.add_argument("--out", type=Path, required=True)

    r = sub.add_parser("render", help="render a plan as one SVG per satellite")
    r.add_argument("plan", type=Path)
    r.add_argument("scenario", type=Path)
    r.add_argument("--out-prefix", type=str, required=True)
    return parser


def cmd_generate(args) -> int:
    if args.users < 1:
        raise UsageError("--users must be >= 1")
    scenario = scen.generate_synthetic(
        seed=args.seed,
        n_users=args.users,
        grid=_fill(FrequencyGrid, args),
        geometry=_fill(scen.ConstellationGeometry, args),
        params=_fill(scen.GenerationParams, args),
        horizon_min=args.horizon_min,
        step_min=args.step_min,
        half_cone_deg=args.half_cone_deg,
    )
    if args.with_restrictions:
        scenario = replace(scenario, restrictions=scen.derive_restrictions(scenario))
    scen.save_scenario(scenario, args.out)
    print(f"wrote {args.out} ({len(scenario.beams)} beams)")
    return EXIT_OK


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    if args.mode == "full" and args.out_trace is not None:
        raise UsageError("--out-trace needs --mode iterative: full mode runs no iterations")
    scenario = scen.load_scenario(args.scenario)
    restrictions = scen.derive_restrictions(scenario)
    weights = _fill(ObjectiveWeights, args)

    tables = None
    if weights.uses_power():
        link = scenario.link or power.LinkBudget()
        tables = power.power_tables_for(scenario.beams, scenario.grid, link)

    # The file may omit beams but not name one the scenario lacks.
    warm_file = None if args.warm_start is None else load_plan_csv(args.warm_start)
    config = (  # full mode reads only the start, for the report's warm figures
        IterationConfig(max_iterations=0) if args.mode == "full" else _fill(IterationConfig, args)
    )
    # optimize repairs the file's start once, or builds the greedy one
    plan, trace = iterative.optimize(
        scenario, restrictions, weights,
        warm_start=warm_file, config=config, power_table=tables,
    )
    if args.mode == "full":
        model = milp.build_full_model(scenario, restrictions, weights)
        solution = solver.solve_exact(model, solver.SolveLimits(max_nodes=args.node_budget))
        if solution.status != solver.OPTIMAL:  # the budget stopped it, or no plan fits
            print(f"solver status: {solution.status}", file=sys.stderr)
        if solution.status not in (solver.OPTIMAL, solver.FEASIBLE):
            return EXIT_INFEASIBLE
        plan = milp.extract_plan(model, solution, replace(scenario, restrictions=restrictions))

    save_plan_csv(plan, args.out_plan)
    if args.out_trace is not None:
        iterative.export_trace(trace, args.out_trace)

    n_s = scenario.geometry.n_s
    bw_warm = total_normalized_bandwidth(trace.start, scenario.grid, n_s)
    bw_final = total_normalized_bandwidth(plan, scenario.grid, n_s)
    power_warm_w, uncarried_warm = _power_w(trace.start, tables) if tables else (None, None)
    power_final_w, uncarried_final = _power_w(plan, tables) if tables else (None, None)
    report = RunReport(
        scenario=str(args.scenario),
        n_beams=len(scenario.beams),
        mode=args.mode,
        bw_warm=bw_warm,
        bw_final=bw_final,
        bw_increase_pct=(bw_final - bw_warm) / bw_warm * 100.0 if bw_warm > 0 else None,
        power_warm_w=power_warm_w,
        power_final_w=power_final_w,
        uncarried_warm=uncarried_warm,
        uncarried_final=uncarried_final,
        iterations=len(trace.records),
    )
    if args.report is not None:
        report.write_csv(args.report)
    print(report.summary(time.perf_counter() - started), end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = scen.load_scenario(args.scenario)
    restrictions = scen.derive_restrictions(scenario)
    plan = load_plan_csv(args.plan)
    violations = validate_plan(plan, scenario.grid, restrictions, scenario.beams)
    if violations:
        for v in violations:
            print(str(v))
        print(f"{len(violations)} violation(s)")
        return EXIT_INVALID
    print("plan is valid")
    return EXIT_OK


def cmd_emit_lp(args) -> int:
    scenario = scen.load_scenario(args.scenario)
    restrictions = scen.derive_restrictions(scenario)
    weights = _fill(ObjectiveWeights, args)
    model = milp.build_full_model(scenario, restrictions, weights, activation=args.activation)
    text = milp.emit_lp(model)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(model.variables)} variables, "
          f"{len(model.constraints)} constraints)")
    return EXIT_OK


def cmd_render(args) -> int:
    scenario = scen.load_scenario(args.scenario)
    plan = load_plan_csv(args.plan)
    check_plan_beams(plan, scenario.beams)
    beams_by_sat: dict[int, list] = {s: [] for s in range(scenario.geometry.n_s)}
    for beam, sat in zip(scenario.beams, scen.route_beams(scenario)[0].tolist()):
        beams_by_sat[sat].append(beam)
    written = []
    for sat in range(scenario.geometry.n_s):
        svg = render.render_plan_svg(
            plan, scenario.grid, beams_by_sat[sat], title=f"satellite {sat + 1}"
        )
        path = f"{args.out_prefix}_sat{sat + 1}.svg"
        with open(path, "w") as fh:
            fh.write(svg)
        written.append(path)
    print("wrote " + ", ".join(written))
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "optimize": cmd_optimize,
    "validate": cmd_validate,
    "emit-lp": cmd_emit_lp,
    "render": cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RoutingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FreqplanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front end.

Subcommands: generate, optimize, validate, emit-lp, render. Exit codes:
0 success/valid, 1 usage error, 2 validation failure, 3 infeasible or
limit reached (including a beam that no satellite sees, so that no plan
exists). All randomness is seeded through explicit flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import iterative, milp, power, render, scenario as scen, solver
from .errors import FreqplanError, RoutingError
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
    scenario_path: str
    n_beams: int
    mode: str
    bw_warm: float
    bw_final: float
    power_warm_w: float | None  # carried beams only
    power_final_w: float | None
    uncarried_warm: int | None  # active beams no MODCOD carries
    uncarried_final: int | None
    iterations: int
    wall_seconds: float

    @property
    def bw_increase_pct(self) -> float | None:
        if self.bw_warm > 0:
            return (self.bw_final - self.bw_warm) / self.bw_warm * 100.0
        return None

    def write_csv(self, path) -> None:
        numbers = (
            self.bw_warm, self.bw_final, self.bw_increase_pct, self.power_warm_w,
            self.power_final_w, self.uncarried_warm, self.uncarried_final, self.iterations,
        )
        with open(path, "w") as fh:
            fh.write("scenario,n_beams,mode,bw_warm,bw_final,bw_increase_pct,"
                     "power_warm_w,power_final_w,uncarried_warm,uncarried_final,iterations\n")
            fh.write(",".join(
                [self.scenario_path, str(self.n_beams), self.mode]
                + ["" if v is None else repr(v) for v in numbers]
            ) + "\n")

    def summary(self) -> str:
        lines = [
            f"scenario:        {self.scenario_path} ({self.n_beams} beams)",
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
        lines.append(f"wall time:       {self.wall_seconds:.2f} s")
        return "\n".join(lines) + "\n"


def _weights_from_args(args) -> ObjectiveWeights:
    return ObjectiveWeights(
        beta1=args.beta1,
        beta2=args.beta2,
        beta3=args.beta3,
        beta4=args.beta4,
        beta5=args.beta5,
    )


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta1", type=float, default=1.0)
    p.add_argument("--beta2", type=float, default=0.0)
    p.add_argument("--beta3", type=float, default=0.0)
    p.add_argument("--beta4", type=float, default=0.0)
    p.add_argument("--beta5", type=float, default=0.0)


def _power_w(plan: FrequencyPlan, tables) -> tuple[float, int]:
    """Total power of the active beams some MODCOD carries, and the count of
    active beams none carries (their power is the big_m sentinel)."""
    active = [(tables[i], a) for i, a in plan.active_items()]
    carried = [t.watts(a.f, a.b) for t, a in active if t.carries(a.b)]
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
    g.add_argument("--half-cone-deg", type=float, default=1.0)
    g.add_argument("--lat-band", type=float, nargs=2, default=(-50.0, 50.0),
                   metavar=("LO", "HI"), help="user latitude band in degrees")
    g.add_argument("--horizon-min", type=float, default=60.0)
    g.add_argument("--step-min", type=float, default=1.0)
    g.add_argument("--with-restrictions", action="store_true",
                   help="derive and embed R_A/R_E in the file")
    g.add_argument("--out", type=Path, required=True)

    o = sub.add_parser("optimize", help="optimize a frequency plan")
    o.add_argument("scenario", type=Path)
    o.add_argument("--mode", choices=["full", "iterative"], default="iterative")
    o.add_argument("--warm-start", type=Path, default=None)
    _add_weight_flags(o)
    o.add_argument("--n-ch", type=int, default=25)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--top-per-bw", type=int, default=10)
    o.add_argument("--window", type=int, default=50)
    o.add_argument("--max-iterations", type=int, default=100000)
    o.add_argument("--node-budget", type=int, default=2000,
                   help="search cap per subproblem component; 0 = exact")
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
    grid = FrequencyGrid(
        n_bw=args.n_bw, n_fr=args.n_fr, n_p=args.n_p,
        slot_bandwidth_hz=args.slot_bandwidth_hz,
    )
    geometry = scen.ConstellationGeometry(n_s=args.n_s, altitude_km=args.altitude_km)
    scenario = scen.generate_synthetic(
        seed=args.seed,
        n_users=args.users,
        grid=grid,
        geometry=geometry,
        params=scen.GenerationParams(lat_band_deg=tuple(args.lat_band)),
        horizon_min=args.horizon_min,
        step_min=args.step_min,
        half_cone_deg=args.half_cone_deg,
    )
    if args.with_restrictions:
        scenario = scen.with_restrictions(scenario)
    scen.save_scenario(scenario, args.out)
    print(f"wrote {args.out} ({len(scenario.beams)} beams)")
    return EXIT_OK


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    if args.mode == "full" and args.out_trace is not None:
        raise UsageError("--out-trace needs --mode iterative: full mode runs no iterations")
    # derived once here, so extract_plan reads the embedded sets
    scenario = scen.with_restrictions(scen.load_scenario(args.scenario))
    restrictions = scenario.restrictions
    weights = _weights_from_args(args)

    tables = None
    if weights.uses_power():
        link = scenario.link or power.LinkBudget()
        tables = power.power_tables_for(scenario.beams, scenario.grid, link)

    if args.warm_start is not None:
        # The report's warm figures are those of the repaired start that the
        # iterative mode begins from, in either mode: no width outside the
        # grid reaches a power table. The file may omit beams but not name
        # one the scenario lacks.
        warm = iterative.sanitize_warm_start(load_plan_csv(args.warm_start), scenario, restrictions)
    else:
        warm = iterative.greedy_warm_start(scenario, restrictions)

    if args.mode == "full":
        model = milp.build_full_model(scenario, restrictions, weights)
        solution = solver.solve_exact(model)
        if solution.status not in ("optimal", "feasible"):
            print(f"solver status: {solution.status}", file=sys.stderr)
            return EXIT_INFEASIBLE
        plan = milp.extract_plan(model, solution, scenario)
        iterations = 0
    else:
        config = iterative.IterationConfig(
            n_ch=args.n_ch,
            top_per_bandwidth=args.top_per_bw,
            convergence_window=args.window,
            seed=args.seed,
            max_iterations=args.max_iterations,
            node_budget=args.node_budget,
        )
        plan, trace = iterative.optimize(
            scenario, restrictions, weights,
            warm_start=warm, config=config, power_table=tables,
        )
        iterations = len(trace.records)

    save_plan_csv(plan, args.out_plan)
    if args.out_trace is not None:
        iterative.export_trace(trace, args.out_trace)

    n_s = scenario.geometry.n_s
    power_warm_w, uncarried_warm = _power_w(warm, tables) if tables else (None, None)
    power_final_w, uncarried_final = _power_w(plan, tables) if tables else (None, None)
    report = RunReport(
        scenario_path=str(args.scenario),
        n_beams=len(scenario.beams),
        mode=args.mode,
        bw_warm=total_normalized_bandwidth(warm, scenario.grid, n_s),
        bw_final=total_normalized_bandwidth(plan, scenario.grid, n_s),
        power_warm_w=power_warm_w,
        power_final_w=power_final_w,
        uncarried_warm=uncarried_warm,
        uncarried_final=uncarried_final,
        iterations=iterations,
        wall_seconds=time.perf_counter() - started,
    )
    if args.report is not None:
        report.write_csv(args.report)
    print(report.summary(), end="")
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
    weights = _weights_from_args(args)
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

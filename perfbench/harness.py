"""Measurement loop, correctness gate and reporting of the benchmark.

Imported by ``run.py`` once ``src/`` is on the import path.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from freqplan.model import ObjectiveWeights

import layers
from tracing import Tracer
from workloads import UNROUTABLE_NOTE, ExactWorkload, IterativeWorkload, Rep, describe

OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("s_iterate", "l_pipeline", "exact_small")
DEFAULT_SEEDS = {"s_iterate": 0, "l_pipeline": 0, "exact_small": 2024}
SCENARIO_SEED = 7  # of both iterative workloads; their --seed drives the optimizer
S_ITERATIONS = 50
L_ITERATIONS = 60
EXACT_INSTANCES = 2000
EXACT_NODE_CAP = 30
MIN_REPS = {"s_iterate": 2, "l_pipeline": 2, "exact_small": 1}
# traced runs alternate untraced and traced repetitions, at least this many
# of each, so counts can be compared between two traced repetitions
MIN_TRACED_REPS = 2

NOTES = {
    "s_iterate": (
        "acceptance large_case (100 users, 98 beams at scenario seed 7, 7 satellites, "
        "+-50 deg band); --seed is the optimizer's sampling seed; n_ch=25, window 50, "
        f"capped at {S_ITERATIONS} iterations. Set-up is ~2% of the chain; the rest is "
        f"enumerate_options, solve_option_selection and iterate_once's conflict build; "
        f"{UNROUTABLE_NOTE}."
    ),
    "l_pipeline": (
        "2000 users, +-30 deg band, 1312 beams at scenario seed 7; --seed is the "
        "optimizer's sampling seed; power-aware weights (beta4=0.05), n_ch=25, "
        f"capped at {L_ITERATIONS} iterations. Generation, routing, pair derivation "
        "and warm start dominate."
    ),
    "exact_small": (
        f"{EXACT_INSTANCES} small instances from acceptance 01's distribution, drawn from "
        f"--seed; solve_exact capped at {EXACT_NODE_CAP} nodes per instance; checked "
        "against brute_force_best_plan outside the timed chain."
    ),
}

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "optimize_s": "s",
    "objective_gain": "objective",
    "final_norm_bw": "ratio",
    "instance_p50_ms": "ms",
    "instance_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def make_workload(name: str, seed: int, scenario_seed: int | None):
    scenario_seed = SCENARIO_SEED if scenario_seed is None else scenario_seed
    if name == "s_iterate":
        return IterativeWorkload(
            name, OUT, scenario_seed=scenario_seed,
            optimizer_seed=seed, n_users=100, lat_band_deg=(-50.0, 50.0),
            weights=ObjectiveWeights(beta1=1.0, beta2=0.01, beta3=0.001),
            max_iterations=S_ITERATIONS,
        )
    if name == "l_pipeline":
        return IterativeWorkload(
            name, OUT, scenario_seed=scenario_seed,
            optimizer_seed=seed, n_users=2000, lat_band_deg=(-30.0, 30.0),
            weights=ObjectiveWeights(beta1=1.0, beta2=0.01, beta3=0.001, beta4=0.05),
            max_iterations=L_ITERATIONS, use_power=True,
        )
    return ExactWorkload(OUT, seed=seed, n_instances=EXACT_INSTANCES, node_cap=EXACT_NODE_CAP)


def call(fn, tracer: Tracer | None, run: str):
    """fn(), with every wrapper of layers.WRAPS recording into run when tracing."""
    if tracer is None:
        return fn()
    tracer.run = run
    layers.install(tracer)
    try:
        return fn()
    finally:
        tracer.restore()


def one_rep(workload, tracer: Tracer | None, run: str) -> Rep:
    try:
        return call(workload.rep, tracer, run)
    except Exception as exc:  # the chain failed: count it, never retry it
        return Rep(failed=1, failures=[describe(exc)], completed=False)


def measure(workload, seconds: float, min_reps: int, tracer: Tracer | None):
    """Closed loop: untraced repetitions, alternating with traced ones when
    tracing, until the time is spent and each kind has min_reps of them."""
    untraced, traced = [], []
    kinds = [(untraced, None)] + ([(traced, tracer)] if tracer is not None else [])
    started = perf_counter()
    while True:
        for reps, with_tracer in kinds:
            rep = one_rep(workload, with_tracer, f"rep{len(reps)}")
            reps.append(rep)
            if rep.failed and workload.stops_on_failure:
                return untraced, traced
        if all(len(reps) >= min_reps for reps, _ in kinds) and perf_counter() - started >= seconds:
            return untraced, traced


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q: float, empty=None):
    return float(np.percentile(values, q)) if values else empty


def end_to_end(reps) -> dict:
    done = [r for r in reps if r.completed]
    pooled = [ms for r in done for ms in r.instance_ms]
    return {
        "pipeline_s": median([r.pipeline_s for r in done]),
        "setup_s": median([r.setup_s for r in done]),
        "optimize_s": median([r.optimize_s for r in done]),
        "objective_gain": done[0].objective_gain if done else None,
        "final_norm_bw": done[0].norm_bw if done else None,
        "instance_p50_ms": percentile(pooled, 50),
        "instance_p90_ms": percentile(pooled, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced, errors: list[str]) -> dict:
    per_rep, iteration_ms = [], []
    for index, rep in enumerate(traced):
        if not rep.completed:
            continue
        values, ms = layers.rep_metrics(tracer, f"rep{index}")
        values.update(rep.counts)
        per_rep.append(values)
        iteration_ms += ms
    out: dict[str, float | None] = {}
    for metric in per_rep[0] if per_rep else ():
        samples = [values.get(metric, 0) for values in per_rep]
        if metric in layers.EXACT:
            if len(set(samples)) > 1:
                errors.append(f"count {metric} differs between repetitions: {samples}")
            out[metric] = samples[0]
        else:
            out[metric] = median(samples)
    out["iterative.iter_p50_ms"] = percentile(iteration_ms, 50, empty=0.0)
    out["iterative.iter_p90_ms"] = percentile(iteration_ms, 90, empty=0.0)
    out["solver.oracle_s"] = sum(
        s.end - s.start for s in tracer.spans if s.run == "check" and s.name == "solver.oracle"
    )
    plain = median([r.pipeline_s for r in untraced if r.completed])
    with_trace = median([r.pipeline_s for r in traced if r.completed])
    out["trace_overhead_frac"] = with_trace / plain - 1.0 if plain and with_trace else None
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, scenario_seed: int | None) -> dict:
    OUT.mkdir(exist_ok=True)
    workload = make_workload(name, seed, scenario_seed)
    tracer = Tracer() if trace else None
    min_reps = MIN_TRACED_REPS if trace else MIN_REPS[name]
    untraced, traced = measure(workload, seconds, min_reps, tracer)

    reps = untraced + traced
    errors = [e for r in reps for e in r.errors]
    errors += call(workload.check, tracer, "check")
    digests = {r.plan_sha256 for r in reps if r.completed}
    if len(digests) > 1:
        errors.append("plan CSV differs between repetitions of the same input")
    if tracer is not None and any(r.completed for r in traced):
        missing = sorted(workload.expected_spans - {span.name for span in tracer.spans})
        if missing:
            errors.append(f"wrapped functions never called: {', '.join(missing)}")

    if tracer is None:
        values, units = end_to_end(untraced), END_TO_END_UNITS
    else:
        values, units = per_layer(tracer, traced, untraced, errors), layers.UNITS
        tracer.write_csv(OUT / f"{name}-seed{seed}-spans.csv")

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    failures = [f for r in reps for f in r.failures]
    done = [r for r in reps if r.completed]
    scenario_seed = getattr(workload, "scenario_seed", None)
    scenario_part = "" if scenario_seed is None else f", scenario seed {scenario_seed}"
    print(f"== {name} (seed {seed}{scenario_part}): {NOTES[name]}")
    print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted!r}")
    for text in sorted(set(failures)):
        print(f"failure: {text}")
    if done:
        print(f"plan_sha256: {done[0].plan_sha256}")
        print(f"final_objective: {done[0].final_objective!r}")
    print(f"correctness gate: {'pass' if not errors else 'FAIL'}")
    for text in errors:
        print(f"gate failure: {text}")
    metrics = {}
    for metric, unit in units.items():
        value = values.get(metric)
        print(f"{metric}: {value!r} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="Benchmark of the freqplan pipeline.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default per workload: %s)" % DEFAULT_SEEDS)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=None,
                        help="override the scenario seed of s_iterate / l_pipeline")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        results[name] = run_workload(name, seed, args.seconds, bool(args.trace), args.scenario_seed)
        if len(names) > 1:
            print(json.dumps({name: results[name]}))
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items() for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0

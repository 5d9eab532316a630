"""Which freqplan calls are traced, and the per-layer metrics built from them.

Each entry of ``WRAPS`` names a module attribute that its callers resolve at
call time, the span name recorded for it, and an optional hook that turns
the call's arguments and result into exact work counts. The same function
reached through two modules (``validate_plan`` from ``iterative``, ``milp``
and the benchmark itself) is wrapped once per binding under one span name.
"""

from __future__ import annotations

import numpy as np

from freqplan import iterative, milp, model, power, scenario, solver

from tracing import Tracer

def _n_beams(args, result):
    return {"scenario.beams": len(result.beams)}


def _intra(args, result):
    return {"scenario.intra_pairs": len(result)}


def _inter(args, result):
    return {"scenario.inter_pairs": len(result)}


def _warm(args, result):
    return {"iterative.warm_active": sum(1 for _ in result.active_items())}


def _options(args, result):
    return {"iterative.options": len(result.options) + int(result.includes_original)}


def _iteration(args, result):
    return {
        "iterative.improved": int(result.stall == 0),
        "iterative.changed": result.trace.records[-1].beams_changed,
    }


def _select(args, result):
    conflicts = args["pair_conflict"]
    return {
        "solver.conflict_pairs": len(conflicts),
        "solver.conflict_cells": sum(int(np.size(m)) for m in conflicts.values()),
    }


def _exact(args, result):
    return {
        "solver.exact_nodes": result.stats.nodes,
        "solver.exact_optimal": int(result.status == solver.OPTIMAL),
        "solver.exact_infeasible": int(result.status == solver.INFEASIBLE),
        "solver.exact_limited": int(result.status in (solver.FEASIBLE, solver.LIMIT_REACHED)),
    }


def _model_size(args, result):
    return {"milp.variables": len(result.variables), "milp.constraints": len(result.constraints)}


def _lp_bytes(args, result):
    return {"milp.lp_bytes": len(result.encode())}


WRAPS = (
    (scenario, "generate_synthetic", "scenario.generate", _n_beams),
    (scenario, "derive_restrictions", "scenario.derive", None),
    (scenario, "route_beams", "scenario.route", None),
    (scenario, "derive_intra_pairs", "scenario.intra_pairs", _intra),
    (scenario, "derive_inter_pairs", "scenario.inter_pairs", _inter),
    (power, "power_tables_for", "power.tables", None),
    (iterative, "greedy_warm_start", "iterative.warm_start", _warm),
    (iterative, "optimize", "iterative.optimize", None),
    (iterative, "iterate_once", "iterative.iterate", _iteration),
    (iterative, "enumerate_options", "iterative.enumerate", _options),
    (iterative, "solve_option_selection", "solver.select", _select),
    (iterative, "objective_value", "model.objective", None),
    (iterative, "validate_plan", "model.validate", None),
    (milp, "build_full_model", "milp.build", _model_size),
    (milp, "emit_lp", "milp.emit_lp", _lp_bytes),
    (milp, "extract_plan", "milp.extract", None),
    (milp, "validate_plan", "model.validate", None),
    (solver, "solve_exact", "solver.exact", _exact),
    (solver, "brute_force_best_plan", "solver.oracle", None),
    (model, "validate_plan", "model.validate", None),
)

# per-layer metric -> span whose total time it reports
SPAN_TIMES = {
    "scenario.generate_s": "scenario.generate",
    "scenario.route_s": "scenario.route",
    "scenario.intra_pairs_s": "scenario.intra_pairs",
    "scenario.inter_pairs_s": "scenario.inter_pairs",
    "power.tables_s": "power.tables",
    "iterative.warm_start_s": "iterative.warm_start",
    "iterative.iterate_s": "iterative.iterate",
    "iterative.enumerate_s": "iterative.enumerate",
    "solver.select_s": "solver.select",
    "solver.exact_s": "solver.exact",
    "milp.build_s": "milp.build",
    "milp.emit_lp_s": "milp.emit_lp",
    "milp.extract_s": "milp.extract",
    "model.validate_s": "model.validate",
    "model.objective_s": "model.objective",
}
# per-layer metric -> span whose number of calls it reports
SPAN_CALLS = {
    "iterative.enumerate_calls": "iterative.enumerate",
    "iterative.iterations": "iterative.iterate",
    "solver.select_calls": "solver.select",
    "model.validate_calls": "model.validate",
    "model.objective_calls": "model.objective",
}
# exact counts taken from the count hooks and from the workload itself
HOOK_COUNTS = (
    "scenario.beams",
    "scenario.intra_pairs",
    "scenario.inter_pairs",
    "power.sentinel_beams",
    "iterative.warm_active",
    "iterative.options",
    "solver.conflict_pairs",
    "solver.conflict_cells",
    "solver.exact_nodes",
    "solver.exact_optimal",
    "solver.exact_infeasible",
    "solver.exact_limited",
    "milp.variables",
    "milp.constraints",
    "milp.lp_bytes",
)


RATIOS = ("iterative.improved_frac", "iterative.changed_per_iter")
# metrics that must repeat exactly between repetitions of the same input
EXACT = frozenset(SPAN_CALLS) | frozenset(HOOK_COUNTS) | frozenset(RATIOS)


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric in RATIOS or metric.endswith("_frac"):
        return "ratio"
    if metric == "milp.lp_bytes":
        return "bytes"
    return "count"


UNITS = {
    metric: _unit(metric)
    for metric in sorted(
        [*SPAN_TIMES, *SPAN_CALLS, *HOOK_COUNTS, *RATIOS, "iterative.iterate_self_s",
         "iterative.iter_p50_ms", "iterative.iter_p90_ms", "solver.oracle_s",
         "trace_overhead_frac"]
    )
}


def install(tracer: Tracer) -> None:
    for module, attr, name, count in WRAPS:
        tracer.wrap(module, attr, name, count)


def rep_metrics(tracer: Tracer, run: str) -> tuple[dict[str, float], list[float]]:
    """Per-layer metrics of one traced repetition, plus its iteration times (ms)."""
    self_times = tracer.self_times()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    iterate_self = 0.0
    iteration_ms = []
    for span, own in zip(tracer.spans, self_times):
        if span.run != run:
            continue
        duration = span.end - span.start
        total[span.name] = total.get(span.name, 0.0) + duration
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name == "iterative.iterate":
            iterate_self += own
            iteration_ms.append(duration * 1000.0)
    counts = tracer.counts[run]
    out = {metric: total.get(name, 0.0) for metric, name in SPAN_TIMES.items()}
    out.update({metric: calls.get(name, 0) for metric, name in SPAN_CALLS.items()})
    out.update({name: counts.get(name, 0) for name in HOOK_COUNTS})
    out["iterative.iterate_self_s"] = iterate_self
    iterations = out["iterative.iterations"]
    out["iterative.improved_frac"] = counts.get("iterative.improved", 0) / iterations if iterations else 0.0
    out["iterative.changed_per_iter"] = counts.get("iterative.changed", 0) / iterations if iterations else 0.0
    return out, iteration_ms

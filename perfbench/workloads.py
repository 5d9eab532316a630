"""The benchmark's workloads. Each repetition runs one timed chain to the end
before the next starts (closed loop, one thread), checks what it produced,
and returns a ``Rep``. Everything the correctness gate computes happens
after the chain's last timestamp.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from freqplan import iterative, milp, model, power, scenario, solver
from freqplan.errors import RoutingError

from instances import random_instance

GRID = model.FrequencyGrid(n_bw=40, n_fr=8, n_p=2, slot_bandwidth_hz=50e6)
GEOMETRY = scenario.ConstellationGeometry(n_s=7, altitude_km=8062.0)
POWER_SENTINEL_DBW = 1000.0  # power_tables_for's default big_m
OBJECTIVE_TOL = 1e-9
ORACLE_TOL = 1e-6

UNROUTABLE_NOTE = (
    "known defect (ROADMAP item 4): with the default +-50 deg latitude band, "
    "scenario seeds 0, 3, 5, 11, 12, 13, 14, 15 and 18 of 0-19 place a beam "
    "that no satellite sees, so routing fails"
)


@dataclass
class Rep:
    """Measurements and gate results of one repetition."""

    setup_s: float = 0.0
    optimize_s: float = 0.0
    pipeline_s: float = 0.0
    instance_ms: list[float] = field(default_factory=list)
    final_objective: float = 0.0
    objective_gain: float = 0.0
    norm_bw: float = 0.0
    plan_sha256: str = ""
    attempted: int = 1
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # exceptions, one per failed operation
    errors: list[str] = field(default_factory=list)  # correctness-gate violations
    counts: dict[str, int] = field(default_factory=dict)
    completed: bool = True  # False when the chain raised before its end


def describe(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, RoutingError):
        text += f" [{UNROUTABLE_NOTE}]"
    return text


def plan_sha256(plan: model.FrequencyPlan, path: Path) -> str:
    model.save_plan_csv(plan, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class IterativeWorkload:
    """generate -> derive_restrictions -> [power tables] -> greedy_warm_start
    -> iterative.optimize (fixed iteration cap) -> validate_plan."""

    expected_spans = frozenset({
        "scenario.generate", "scenario.derive", "scenario.route",
        "scenario.intra_pairs", "scenario.inter_pairs", "iterative.warm_start",
        "iterative.optimize", "iterative.iterate", "iterative.enumerate",
        "solver.select", "model.objective", "model.validate",
    })
    stops_on_failure = True  # the same input would fail the same way again

    def __init__(self, name, out_dir, *, scenario_seed, optimizer_seed, n_users,
                 lat_band_deg, weights, max_iterations, use_power=False):
        self.name = name
        self.scenario_seed = scenario_seed
        self.n_users = n_users
        self.params = scenario.GenerationParams(lat_band_deg=lat_band_deg)
        self.weights = weights
        self.use_power = use_power
        self.config = iterative.IterationConfig(
            n_ch=25, convergence_window=50, seed=optimizer_seed,
            max_iterations=max_iterations,
        )
        if use_power:
            self.expected_spans = self.expected_spans | {"power.tables"}
        self.plan_path = out_dir / f"{name}-plan.csv"

    def rep(self) -> Rep:
        t0 = perf_counter()
        scen = scenario.generate_synthetic(
            seed=self.scenario_seed, n_users=self.n_users, grid=GRID,
            geometry=GEOMETRY, params=self.params,
        )
        restrictions = scenario.derive_restrictions(scen)
        tables = None
        if self.use_power:
            tables = power.power_tables_for(scen.beams, scen.grid, power.LinkBudget())
        warm = iterative.greedy_warm_start(scen, restrictions)
        t1 = perf_counter()
        plan, trace = iterative.optimize(
            scen, restrictions, self.weights, warm_start=warm,
            config=self.config, power_table=tables,
        )
        t2 = perf_counter()
        violations = model.validate_plan(plan, scen.grid, restrictions, scen.beams)
        t3 = perf_counter()

        objectives = trace.objectives()
        rep = Rep(
            setup_s=t1 - t0, optimize_s=t2 - t1, pipeline_s=t3 - t0,
            instance_ms=[r.wall_ms for r in trace.records],
            final_objective=objectives[-1],
            objective_gain=objectives[-1] - model.objective_value(warm, self.weights, tables),
            norm_bw=trace.records[-1].normalized_bw,
            plan_sha256=plan_sha256(plan, self.plan_path),
        )
        if violations:
            rep.errors.append(f"final plan has {len(violations)} violations, first {violations[0]}")
        if any(b < a - OBJECTIVE_TOL for a, b in zip(objectives, objectives[1:])):
            rep.errors.append("trace objective decreased")
        if tables is not None:
            rep.counts["power.sentinel_beams"] = sum(
                1 for i, a in plan.active_items() if tables[i].value(a.f, a.b) >= POWER_SENTINEL_DBW
            )
        return rep

    def check(self) -> list[str]:
        return []


@dataclass
class _Outcome:
    status: str
    objective: float
    plan: model.FrequencyPlan | None


class ExactWorkload:
    """Per instance: build_full_model -> emit_lp -> solve_exact (node cap)
    -> extract_plan -> validate_plan; brute_force_best_plan checks the
    statuses and objectives once per run, outside the timed chain."""

    expected_spans = frozenset({
        "milp.build", "milp.emit_lp", "solver.exact", "milp.extract",
        "model.validate", "solver.oracle",
    })
    stops_on_failure = False  # a failed instance fails alone; the others still run

    def __init__(self, out_dir, *, seed, n_instances, node_cap):
        self.seed = seed
        self.n_instances = n_instances
        self.limits = solver.SolveLimits(max_nodes=node_cap)
        self.plan_path = out_dir / "exact_small-plan.csv"
        self._checked: tuple[list, list] | None = None

    def rep(self) -> Rep:
        t0 = perf_counter()
        rng = np.random.default_rng(self.seed)
        instances = [random_instance(rng) for _ in range(self.n_instances)]
        t1 = perf_counter()
        outcomes: list[_Outcome | None] = []
        failures, violations, instance_ms = [], [], []
        solve_s = 0.0
        for scen, weights in instances:
            started = perf_counter()
            try:
                full = milp.build_full_model(scen, scen.restrictions, weights)
                milp.emit_lp(full)
                solve_started = perf_counter()
                solution = solver.solve_exact(full, self.limits)
                solve_s += perf_counter() - solve_started
                plan = None
                if solution.status in (solver.OPTIMAL, solver.FEASIBLE):
                    plan = milp.extract_plan(full, solution, scen)
                    violations += model.validate_plan(plan, scen.grid, scen.restrictions, scen.beams)
                outcomes.append(_Outcome(solution.status, solution.objective, plan))
            except Exception as exc:  # counted in failed_frac, never retried
                failures.append(describe(exc))
                outcomes.append(None)
            instance_ms.append((perf_counter() - started) * 1000.0)
        t2 = perf_counter()

        digest = hashlib.sha256()
        objective, norm_bws = 0.0, []
        for (scen, _), o in zip(instances, outcomes):
            if o is None or o.plan is None:
                digest.update(f"{o.status if o else 'failed'}\n".encode())
                continue
            model.save_plan_csv(o.plan, self.plan_path)
            digest.update(self.plan_path.read_bytes())
            objective += o.objective
            norm_bws.append(model.total_normalized_bandwidth(o.plan, scen.grid, scen.geometry.n_s))
        rep = Rep(
            setup_s=t1 - t0, optimize_s=solve_s, pipeline_s=t2 - t0,
            instance_ms=instance_ms,
            final_objective=objective,
            objective_gain=objective,  # every instance starts from no plan
            norm_bw=float(np.mean(norm_bws)) if norm_bws else 0.0,
            plan_sha256=digest.hexdigest(),
            attempted=len(instances), failed=len(failures), failures=failures,
        )
        if violations:
            rep.errors.append(f"{len(violations)} violations in extracted plans, first {violations[0]}")
        if self._checked is None:
            self._checked = (instances, outcomes)
        return rep

    def check(self) -> list[str]:
        """Statuses and objectives of the first repetition against the
        brute-force oracle. A capped search may stop short of the optimum
        but must never claim more than it."""
        if self._checked is None:
            return []
        mismatches = []
        for k, ((scen, weights), got) in enumerate(zip(*self._checked)):
            if got is None:
                continue  # already counted as a failed operation
            oracle = solver.brute_force_best_plan(scen, scen.restrictions, weights)
            if got.status == solver.OPTIMAL:
                ok = oracle.status == solver.OPTIMAL and abs(got.objective - oracle.objective) <= ORACLE_TOL
            elif got.status == solver.INFEASIBLE:
                ok = oracle.status == solver.INFEASIBLE
            elif got.status == solver.FEASIBLE:
                ok = oracle.status == solver.OPTIMAL and got.objective <= oracle.objective + ORACLE_TOL
            else:  # limit reached before any incumbent
                ok = True
            if not ok:
                mismatches.append(
                    f"instance {k}: solve_exact {got.status} {got.objective!r}, "
                    f"oracle {oracle.status} {oracle.objective!r}"
                )
        return mismatches

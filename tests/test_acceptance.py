"""Acceptance gate: one test per criterion, each printing one PASS/FAIL line.

The heavier tests share a module-scoped 98-beam scenario. Oracles here are
independent re-implementations (brute-force enumeration, dB-chain power,
reference validator) rather than package internals.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from freqplan import (
    DEFAULT_MODCODS,
    Assignment,
    Beam,
    ConstellationGeometry,
    FrequencyGrid,
    FrequencyPlan,
    LinkBudget,
    ObjectiveWeights,
    RestrictionSets,
    Scenario,
    beam_power,
    build_full_model,
    derive_restrictions,
    generate_synthetic,
    objective_value,
    power_tables_for,
    solve_exact,
    total_normalized_bandwidth,
    validate_plan,
)
from freqplan import iterative
from freqplan.cli import main as cli_main
from freqplan.solver import brute_force_best_plan

from util import model_accepts_plan, random_instance, ref_plan_is_valid, all_active_plans

TOL = 1e-6


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def large_case():
    """98-beam scenario shared by the improvement / trade-off / power tests."""
    scenario = generate_synthetic(
        seed=7,
        n_users=100,
        grid=FrequencyGrid(n_bw=40, n_fr=8, n_p=2, slot_bandwidth_hz=50e6),
        geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
    )
    restrictions = derive_restrictions(scenario)
    warm = iterative.greedy_warm_start(scenario, restrictions)
    return scenario, restrictions, warm


def test_01_exact_solver_matches_enumeration_oracle():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    nodes, statuses = 0, Counter()
    for _ in range(100):
        scenario, weights = random_instance(rng)
        model = build_full_model(scenario, scenario.restrictions, weights)
        solution = solve_exact(model)
        nodes += solution.stats.nodes
        statuses[solution.status] += 1
        oracle = brute_force_best_plan(scenario, scenario.restrictions, weights)
        if oracle.status == "infeasible":
            assert solution.status == "infeasible"
        else:
            assert solution.status == "optimal"
            assert solution.objective == pytest.approx(oracle.objective, abs=TOL)
            for name, value in solution.values.items():
                assert abs(value - round(value)) < 1e-9, f"{name} not integral"
            checked += 1
    # the search tree itself: a propagation change that adds or drops one
    # node anywhere fails here
    assert (nodes, statuses) == (21682, Counter(optimal=77, infeasible=23))
    elapsed = time.perf_counter() - started
    _report(
        1,
        "oracle equivalence",
        checked > 0 and elapsed < 60.0,
        f"{checked}/100 feasible matched in {elapsed:.1f}s",
    )


def test_02_formulation_sound_and_complete():
    rng = np.random.default_rng(5)
    total = 0
    for _ in range(3):
        scenario, weights = random_instance(rng, max_beams=3, max_bw=3)
        model = build_full_model(scenario, scenario.restrictions, weights)
        for plan in all_active_plans(scenario):
            accepted = model_accepts_plan(model, scenario, plan)
            valid = ref_plan_is_valid(
                plan, scenario.grid, scenario.restrictions, scenario.beams
            )
            assert accepted == valid
            total += 1
    _report(2, "soundness and completeness", total > 0, f"{total} plans enumerated")


def test_03_single_full_iteration_reaches_model_optimum():
    rng = np.random.default_rng(77)
    compared = 0
    attempts = 0
    while compared < 20 and attempts < 80:
        attempts += 1
        scenario, _ = random_instance(rng)
        weights = ObjectiveWeights(
            beta1=1.0,
            beta2=float(rng.uniform(0, 0.05)),
            beta3=float(rng.uniform(0, 0.05)),
        )
        warm = iterative.greedy_warm_start(scenario, scenario.restrictions)
        if any(not warm[b.id].active for b in scenario.beams):
            continue  # keep the candidate spaces identical: every beam re-placed
        model = build_full_model(scenario, scenario.restrictions, weights)
        solution = solve_exact(model)
        if solution.status != "optimal":
            continue
        config = iterative.IterationConfig(
            n_ch=len(scenario.beams),
            top_per_bandwidth=None,
            convergence_window=1,
            seed=0,
            max_iterations=1,
            node_budget=0,
        )
        plan, trace = iterative.optimize(
            scenario, scenario.restrictions, weights, warm_start=warm, config=config
        )
        assert len(trace.records) == 1
        assert objective_value(plan, weights) == pytest.approx(
            solution.objective, abs=TOL
        )
        compared += 1
    _report(
        3,
        "one full iteration equals the exact optimum",
        compared >= 20,
        f"{compared} instances matched exactly",
    )


def test_04_monotone_improvement_beats_warm_start(large_case):
    scenario, restrictions, warm = large_case
    weights = ObjectiveWeights(beta1=1.0, beta2=0.01, beta3=0.001)
    warm_bw = total_normalized_bandwidth(warm, scenario.grid, scenario.geometry.n_s)
    started = time.perf_counter()
    finals = {}
    for n_ch in (5, 10, 25):
        config = iterative.IterationConfig(n_ch=n_ch, convergence_window=50, seed=0)
        plan, trace = iterative.optimize(
            scenario, restrictions, weights, warm_start=warm, config=config
        )
        objs = trace.objectives()
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:])), (
            f"objective regressed with n_ch={n_ch}"
        )
        assert not validate_plan(plan, scenario.grid, restrictions, scenario.beams)
        final_bw = total_normalized_bandwidth(plan, scenario.grid, scenario.geometry.n_s)
        assert final_bw > warm_bw
        finals[n_ch] = final_bw
    elapsed = time.perf_counter() - started
    _report(
        4,
        "monotone improvement over warm start",
        elapsed < 600.0,
        f"bw {warm_bw:.3f} -> {finals} in {elapsed:.0f}s",
    )


def test_05_mean_gain_per_iteration_grows_with_sample_size(large_case):
    scenario, restrictions, warm = large_case
    weights = ObjectiveWeights(beta1=1.0, beta2=0.01, beta3=0.001)
    warm_obj = objective_value(warm, weights)
    means = []
    for n_ch in (5, 10, 25):
        gains = []
        for seed in range(5):
            config = iterative.IterationConfig(
                n_ch=n_ch, convergence_window=100, seed=seed, max_iterations=40
            )
            _, trace = iterative.optimize(
                scenario, restrictions, weights, warm_start=warm, config=config
            )
            gains.append((trace.objectives()[-1] - warm_obj) / len(trace.records))
        means.append(float(np.mean(gains)))
    ok = all(b >= a - 1e-9 for a, b in zip(means, means[1:]))
    _report(
        5,
        "per-iteration gain non-decreasing in n_ch",
        ok,
        "means " + ", ".join(f"{m:.2f}" for m in means),
    )


def test_06_halts_after_exactly_window_stalled_iterations():
    # single unrestricted beam: iteration 1 reaches the optimum, every later
    # iteration stalls, so the loop must stop after exactly 1 + window steps
    grid = FrequencyGrid(n_bw=6, n_fr=1, n_p=2)
    scenario = Scenario(
        grid=grid,
        beams=(Beam(id=1, demand_bps=1e6, min_slots=1),),
        geometry=ConstellationGeometry(n_s=2, altitude_km=8062.0),
        restrictions=RestrictionSets.of(),
    )
    weights = ObjectiveWeights(beta1=1.0, beta2=0.1, beta3=0.1)
    optimum = 1.0 * grid.n_bw - 0.1 * 1 - 0.1 * 1
    for window in (3, 17, 50):
        config = iterative.IterationConfig(
            n_ch=1, convergence_window=window, seed=0
        )
        plan, trace = iterative.optimize(
            scenario, scenario.restrictions, weights, config=config
        )
        assert trace.objectives()[0] == pytest.approx(optimum)
        assert len(trace.records) == 1 + window
        assert plan[1] == Assignment(f=1, g=1, b=grid.n_bw)
    _report(6, "convergence rule", True, "halted at 1 + window for 3 window sizes")


def _oracle_power_dbw(demand_bps, bw_hz, link, table):
    """Independent dB chain used only for cross-checking."""
    k_b, c = 1.380649e-23, 299792458.0
    gamma = demand_bps * (1.0 + link.rolloff) / bw_hz
    mc = next((e for e in table.entries if e.spectral_efficiency >= gamma), None)
    if mc is None:
        return None
    return (
        mc.ebn0_db
        + 10 * math.log10(demand_bps)
        + link.obo_db
        - link.g_tx_db
        - link.g_rx_db
        + 20 * math.log10(4 * math.pi * link.distance_m * link.carrier_hz / c)
        + 10 * math.log10(k_b * link.t_sys_k)
    )


def test_07_power_model_monotone_and_matches_db_chain():
    rng = np.random.default_rng(11)
    link = LinkBudget()
    violations = 0
    sweeps = 0
    for _ in range(500):
        demand = float(rng.uniform(1e6, 5e9))
        prev = None
        for b in range(1, 21):
            p = beam_power(demand, b * 50e6, link, DEFAULT_MODCODS, big_m=1000.0)
            sweeps += 1
            if prev is not None and p.dbw > prev + 1e-9:
                violations += 1
            prev = p.dbw
    assert sweeps == 10_000
    assert violations == 0

    for _ in range(100):
        draw = LinkBudget(
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
        expected = _oracle_power_dbw(demand, bw, draw, DEFAULT_MODCODS)
        got = beam_power(demand, bw, draw, DEFAULT_MODCODS, big_m=1000.0)
        if expected is None:
            assert got.dbw == 1000.0 and got.modcod is None
        else:
            assert got.dbw == pytest.approx(expected, abs=0.01)

    assert beam_power(1e14, 50e6, link, DEFAULT_MODCODS, big_m=777.0).dbw == 777.0
    _report(7, "power model", True, "0/10000 monotonicity violations, 100 draws matched")


def test_08_power_objective_reduces_total_power(large_case):
    scenario, restrictions, warm = large_case
    tables = power_tables_for(scenario.beams, scenario.grid, LinkBudget())

    def carried_watts(plan):
        """(beams carried, their total power, active beams at the 1000 dBW
        sentinel, which no MODCOD carries)."""
        active = list(plan.active_items())
        carried = [tables[i].watts(a.b) for i, a in active if tables[i].value(a.f, a.b) < 1000.0]
        return len(carried), sum(carried), len(active) - len(carried)

    weights = ObjectiveWeights(beta1=1.0, beta4=0.05)
    config = iterative.IterationConfig(n_ch=25, convergence_window=50, seed=0)
    plan, _ = iterative.optimize(
        scenario, restrictions, weights, warm_start=warm,
        config=config, power_table=tables,
    )
    # like with like: the final plan carries no fewer beams, leaves no more
    # uncarried, and spends less power on the beams it carries
    (warm_n, warm_w, warm_u), (final_n, final_w, final_u) = carried_watts(warm), carried_watts(plan)
    _report(
        8,
        "power minimization",
        final_n >= warm_n and final_u <= warm_u and final_w < warm_w,
        f"carried {warm_n} beams {warm_w:.1f} W, {warm_u} uncarried -> "
        f"{final_n} beams {final_w:.1f} W, {final_u} uncarried",
    )


def test_09_cli_outputs_are_byte_identical(tmp_path):
    def run_all(tag):
        d = tmp_path / tag
        d.mkdir()
        scen = d / "scen.json"
        assert cli_main([
            "generate", "--seed", "1", "--users", "12",
            "--n-bw", "5", "--n-fr", "2", "--n-p", "2", "--n-s", "4",
            "--horizon-min", "10", "--lat-band", "-20", "20",
            "--out", str(scen),
        ]) == 0
        plan, trace = d / "plan.csv", d / "trace.csv"
        assert cli_main([
            "optimize", str(scen), "--mode", "iterative", "--n-ch", "4",
            "--seed", "0", "--window", "8",
            "--out-plan", str(plan), "--out-trace", str(trace),
        ]) == 0
        lp = d / "model.lp"
        assert cli_main(["emit-lp", str(scen), "--out", str(lp)]) == 0
        assert cli_main([
            "render", str(plan), str(scen), "--out-prefix", str(d / "grid"),
        ]) == 0
        names = ["scen.json", "plan.csv", "trace.csv", "model.lp"] + [
            f"grid_sat{s}.svg" for s in (1, 2, 3, 4)
        ]
        return {name: (d / name).read_bytes() for name in names}

    first, second = run_all("a"), run_all("b")
    ok = first == second
    _report(9, "determinism", ok, f"{len(first)} artifacts byte-identical")


def test_10_validator_flags_every_injected_overlap():
    rng = np.random.default_rng(99)
    grid = FrequencyGrid(n_bw=6, n_fr=2, n_p=2)
    detected = 0
    for _ in range(100):
        kind = "intra" if rng.random() < 0.5 else "inter"
        restrictions = RestrictionSets.of(**{kind: [(1, 2)]})
        beams = tuple(Beam(id=i, demand_bps=1e6, min_slots=1) for i in (1, 2, 3))
        g2 = int(rng.integers(1, grid.n_rows + 1))
        base = FrequencyPlan({
            1: Assignment(f=1, g=int(rng.integers(1, grid.n_rows + 1)), b=2),
            2: Assignment(f=4, g=g2, b=2),
            3: Assignment(f=6, g=int(rng.integers(1, grid.n_rows + 1)), b=1),
        })
        assert not validate_plan(base, grid, restrictions, beams)

        if kind == "intra":
            bad_g = g2
        else:  # any row sharing beam 2's polarization
            same_m = [g for g in range(1, grid.n_rows + 1) if (g - g2) % grid.n_p == 0]
            bad_g = int(rng.choice(same_m))
        mutated = FrequencyPlan({
            **base.assignments,
            1: Assignment(f=4, g=bad_g, b=2),
        })
        found = validate_plan(mutated, grid, restrictions, beams)
        if any(v.kind == f"{kind}-overlap" and set(v.beams) == {1, 2} for v in found):
            detected += 1
    _report(10, "validator mutation testing", detected == 100, f"{detected}/100 detected")

"""Model assembly, LP emission and plan extraction tests."""

import hashlib
import re

import numpy as np
import pytest

from freqplan import (
    Beam,
    ConstellationGeometry,
    ExtractionError,
    FrequencyGrid,
    MilpModel,
    ModelBuildError,
    ObjectiveWeights,
    RestrictionSets,
    Scenario,
    UnsupportedConfigurationError,
    build_full_model,
    derive_restrictions,
    emit_lp,
    extract_plan,
    generate_synthetic,
    solve_exact,
    validate_plan,
)
from freqplan.milp import Constraint, Variable
from freqplan.solver import SolveLimits

from util import all_active_plans, model_accepts_plan, random_instance, ref_plan_is_valid

GRID = FrequencyGrid(n_bw=4, n_fr=2, n_p=2)
GEOM = ConstellationGeometry(n_s=2, altitude_km=8062.0)


def scenario_with(beams, intra=(), inter=()):
    return Scenario(
        grid=GRID,
        beams=tuple(beams),
        geometry=GEOM,
        restrictions=RestrictionSets.of(intra=intra, inter=inter),
    )


class TestModelShape:
    def test_single_beam_variables_and_constraints(self):
        s = scenario_with([Beam(id=1)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights())
        assert [v.name for v in model.variables] == ["f_1", "g_1", "b_1", "k_1", "m_1"]
        assert [c.name for c in model.constraints] == ["spectrum_1", "reuse_1"]

    def test_intra_pair_adds_three_binaries_and_eight_constraints(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights())
        names = {v.name for v in model.variables}
        assert {"z_1_2", "y_1_2", "p_1_2"} <= names
        assert "s_1_2" not in names and "d_1_2" not in names
        pair_cons = [c.name for c in model.constraints if c.name.endswith("_1_2")]
        assert len(pair_cons) == 8

    def test_inter_pair_adds_three_binaries_and_eight_constraints(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], inter=[(1, 2)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights())
        names = {v.name for v in model.variables}
        assert {"z_1_2", "s_1_2", "d_1_2"} <= names
        assert "y_1_2" not in names
        pair_cons = [c.name for c in model.constraints if c.name.endswith("_1_2")]
        assert len(pair_cons) == 8

    def test_pair_in_both_sets_shares_the_order_binary(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)], inter=[(1, 2)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights())
        z_vars = [v for v in model.variables if v.name.startswith("z_")]
        assert len(z_vars) == 1
        pair_cons = [c.name for c in model.constraints if c.name.endswith("_1_2")]
        assert len(pair_cons) == 14  # 2 order + 6 intra + 6 inter

    def test_activation_adds_one_binary_per_beam(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        base = build_full_model(s, s.restrictions, ObjectiveWeights())
        act = build_full_model(s, s.restrictions, ObjectiveWeights(), activation=True)
        base_names = {v.name for v in base.variables}
        act_names = {v.name for v in act.variables}
        assert act_names - base_names == {"a_1", "a_2"}
        assert len(act.constraints) == len(base.constraints)

    def test_variable_domains_respect_beam_restrictions(self):
        s = scenario_with(
            [Beam(id=1, min_slots=2, allowed_rows=(2, 3), allowed_slots=(2, 4))]
        )
        model = build_full_model(s, s.restrictions, ObjectiveWeights())
        by_name = {v.name: v for v in model.variables}
        assert (by_name["f_1"].lower, by_name["f_1"].upper) == (2, 4)
        assert (by_name["g_1"].lower, by_name["g_1"].upper) == (2, 3)
        assert (by_name["b_1"].lower, by_name["b_1"].upper) == (2, 3)

    def test_rejects_power_weight(self):
        s = scenario_with([Beam(id=1)])
        with pytest.raises(UnsupportedConfigurationError):
            build_full_model(s, s.restrictions, ObjectiveWeights(beta4=1.0))

    def test_rejects_unsatisfiable_min_slots(self):
        s = scenario_with([Beam(id=1, min_slots=3, allowed_slots=(1, 2))])
        with pytest.raises(ModelBuildError):
            build_full_model(s, s.restrictions, ObjectiveWeights())

    def test_big_m_and_epsilon_are_constants(self):
        # M = n_bw + n_rows + 2 = 10 on the 4-slot, 4-row grid; epsilon = 1
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights())
        by_name = {c.name: c for c in model.constraints}
        assert by_name["rel_left_1_2"].terms[-1] == (-10.0, "z_1_2")
        assert by_name["rel_left_1_2"].rhs == -10.0
        assert by_name["rel_right_1_2"].rhs == 1.0
        assert by_name["row_gt_1_2"].rhs == -9.0


class TestModelIr:
    def test_duplicate_variable_rejected(self):
        m = MilpModel()
        m.add_variable("x", 0, 1, "binary")
        with pytest.raises(ModelBuildError):
            m.add_variable("x", 0, 1, "binary")

    def test_unbounded_integer_rejected(self):
        m = MilpModel()
        with pytest.raises(ModelBuildError):
            m.add_variable("x", 0, float("inf"), "integer")

    def test_unknown_variable_in_constraint_rejected(self):
        m = MilpModel()
        with pytest.raises(ModelBuildError):
            m.add_constraint("c", [(1.0, "ghost")], "<=", 1.0)

    def test_nan_and_infinite_coefficients_rejected(self):
        nan, inf = float("nan"), float("inf")
        m = MilpModel()
        m.add_variable("x", 0, 3, "integer")
        for lower, upper in ((nan, 1.0), (0.0, nan)):
            with pytest.raises(ModelBuildError, match="NaN bound"):
                m.add_variable("y", lower, upper, "continuous")
        for coef in (nan, inf, -inf):
            with pytest.raises(ModelBuildError, match="constraint c has a non-finite coefficient"):
                m.add_constraint("c", [(1.0, "x"), (coef, "x")], "<=", 1.0)
            with pytest.raises(ModelBuildError, match="objective has a non-finite coefficient"):
                m.set_objective([(coef, "x")])
        with pytest.raises(ModelBuildError, match="NaN rhs"):
            m.add_constraint("c", [(1.0, "x")], ">=", nan)
        assert m.constraints == [] and m.objective == () and len(m.variables) == 1

    def test_constructor_takes_no_contents(self):
        """Variables, constraints and the objective enter only through the
        checked methods, so the constructor cannot pass a NaN coefficient
        or a bad sense to emit_lp or solve_exact."""
        x = Variable("x", 0, 1, "binary")
        for contents in ({"variables": [x]}, {"constraints": [Constraint("c", ((float("nan"), "x"),), "<", 1.0)]},
                         {"objective": ((1.0, "x"),)}):
            with pytest.raises(TypeError):
                MilpModel(**contents)
        m = MilpModel()
        assert (m.variables, m.constraints, m.objective) == ([], [], ())
        assert MilpModel().variables is not m.variables

    def test_infinite_bounds_and_rhs_are_written(self):
        inf = float("inf")
        m = MilpModel()
        m.add_variable("x", -inf, inf, "continuous")
        m.add_variable("y", 0, inf, "continuous")
        m.add_constraint("c", [(1.0, "x"), (-0.5, "y")], "<=", inf)
        m.set_objective([(1.0, "y")])
        parsed = parse_lp(emit_lp(m))
        assert parsed["bounds"] == ["-inf <= x <= +inf", "0 <= y <= +inf"]
        assert parsed["constraints"] == ["c: 1 x - 0.5 y <= +inf"]


LP_SECTION_RE = re.compile(
    r"\AMaximize\n.*?\nSubject To\n.*?\nBounds\n.*?\nEnd\n\Z", re.DOTALL
)


def parse_lp(text: str) -> dict:
    """Minimal reference parser for the emitted LP dialect."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if not line.startswith(" "):
            current = line
            sections[current] = []
        else:
            sections[current].append(line.strip())
    out = {
        "objective": " ".join(sections["Maximize"]),
        "constraints": sections["Subject To"],
        "bounds": sections["Bounds"],
        "generals": " ".join(sections.get("Generals", [])).split(),
        "binaries": " ".join(sections.get("Binaries", [])).split(),
    }
    assert "End" in sections
    return out


class TestLpEmission:
    def test_sections_and_determinism(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)], inter=[(1, 2)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights(beta2=0.5))
        text = emit_lp(model)
        assert LP_SECTION_RE.match(text)
        again = emit_lp(build_full_model(s, s.restrictions, ObjectiveWeights(beta2=0.5)))
        assert text == again

    def test_round_trip_against_reference_parser(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights(beta3=0.25))
        parsed = parse_lp(emit_lp(model))
        assert len(parsed["constraints"]) == len(model.constraints)
        assert len(parsed["bounds"]) == len(model.variables)
        assert set(parsed["generals"]) == {
            v.name for v in model.variables if v.integrality == "integer"
        }
        assert set(parsed["binaries"]) == {
            v.name for v in model.variables if v.integrality == "binary"
        }
        # objective carries the fractional weight verbatim
        assert "0.25" in parsed["objective"]

    def test_empty_objective_placeholder(self):
        s = scenario_with([Beam(id=1)])
        model = build_full_model(
            s, s.restrictions, ObjectiveWeights(beta1=0.0)
        )
        assert " obj: 0 x_dummy" in emit_lp(model).splitlines()


class TestFormulationSemantics:
    """The feasible set of the model equals the set of valid plans."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_soundness_and_completeness_by_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        scenario, _ = random_instance(rng, max_beams=3, max_bw=3)
        model = build_full_model(scenario, scenario.restrictions, ObjectiveWeights())
        for plan in all_active_plans(scenario):
            valid = ref_plan_is_valid(
                plan, scenario.grid, scenario.restrictions, scenario.beams
            )
            assert model_accepts_plan(model, scenario, plan) == valid

    def test_orientation_invariance(self):
        # swapping the declared pair order must not change the feasible set
        beams = [Beam(id=1), Beam(id=2)]
        a = scenario_with(beams, intra=[(1, 2)])
        b = scenario_with(beams, intra=[(2, 1)])
        ma = build_full_model(a, a.restrictions, ObjectiveWeights())
        mb = build_full_model(b, b.restrictions, ObjectiveWeights())
        for plan in all_active_plans(a):
            assert model_accepts_plan(ma, a, plan) == model_accepts_plan(mb, b, plan)


class TestExtraction:
    def test_extracts_valid_plan_from_optimum(self):
        s = scenario_with([Beam(id=1), Beam(id=2)], intra=[(1, 2)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights())
        sol = solve_exact(model)
        plan = extract_plan(model, sol, s)
        assert validate_plan(plan, s.grid, s.restrictions, s.beams) == []
        assert all(a.active for _, a in plan.active_items())

    def test_activation_decodes_inactive_beams(self):
        # two beams forced onto one cell: with activation one must switch off
        beams = [
            Beam(id=1, allowed_rows=(1, 1), allowed_slots=(1, 1)),
            Beam(id=2, allowed_rows=(1, 1), allowed_slots=(1, 1)),
        ]
        s = scenario_with(beams, intra=[(1, 2)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights(beta5=10.0), activation=True)
        sol = solve_exact(model)
        plan = extract_plan(model, sol, s)
        actives = [i for i, _ in plan.active_items()]
        assert len(actives) == 1

    def test_rejects_non_optimal_status(self):
        s = scenario_with([Beam(id=1)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights())
        sol = solve_exact(model)
        sol.status = "infeasible"
        with pytest.raises(ExtractionError):
            extract_plan(model, sol, s)

    def test_checks_derived_pairs_without_embedded_restrictions(self):
        # two beams 0.7 deg apart share a satellite and interfere, but the
        # scenario embeds no restriction sets: the decoded plan is still checked
        s = Scenario(
            grid=FrequencyGrid(n_bw=4, n_fr=1, n_p=2),
            beams=(Beam(id=1, lat=0.0, lon=0.0), Beam(id=2, lat=0.5, lon=0.5)),
            geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
        )
        model = build_full_model(s, RestrictionSets(), ObjectiveWeights())
        sol = solve_exact(model)
        sol.values.update(f_1=1, g_1=1, b_1=2, f_2=1, g_2=1, b_2=2)
        with pytest.raises(ExtractionError, match="intra-overlap.*inter-overlap"):
            extract_plan(model, sol, s)

    def test_rejects_fractional_values(self):
        s = scenario_with([Beam(id=1)])
        model = build_full_model(s, s.restrictions, ObjectiveWeights())
        sol = solve_exact(model)
        sol.values["f_1"] = 1.5
        with pytest.raises(ExtractionError):
            extract_plan(model, sol, s)


class TestByteIdentity:
    """SHA-256 pins of what the full-model path produces: the LP text of a
    generated scenario and solve_exact's outcomes on small instances. A
    change to one byte of the LP, or to one status, value, bound or node
    count of the search, fails here."""

    @pytest.mark.parametrize(
        "activation, length, digest",
        [
            (False, 770242, "72d482360bf4d1b7608a52887b5dbc1173f148a86d006b93c063eb7bf68ae3cd"),
            (True, 828013, "06ea98b50101d8de5af60a5ea1edfca4a796215e95fd7e0dcd4457308b61488d"),
        ],
    )
    def test_lp_of_the_98_beam_scenario(self, activation, length, digest):
        # acceptance's 98-beam scenario (seed 7), with fractional weights so
        # the writer's non-integral coefficients are pinned too
        scenario = generate_synthetic(
            seed=7,
            n_users=100,
            grid=FrequencyGrid(n_bw=40, n_fr=8, n_p=2, slot_bandwidth_hz=50e6),
            geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
        )
        weights = ObjectiveWeights(beta1=1.0, beta2=0.01, beta3=0.001, beta5=0.5)
        model = build_full_model(
            scenario, derive_restrictions(scenario), weights, activation=activation
        )
        text = emit_lp(model)
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (length, digest)

    def test_lp_of_2000_small_instances(self):
        # the exact_small distribution (seed 2024), 1815 of whose pairs are
        # both intra and inter: the walk over both kinds in pair order
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for _ in range(2000):
            scenario, weights = random_instance(rng)
            digest.update(emit_lp(build_full_model(scenario, scenario.restrictions, weights)).encode())
        assert digest.hexdigest() == "7b3702b155502379100deaf9ab026d1d0930c29d26e9d3244c5d641c1cd819bb"

    def test_solve_exact_outcomes_on_200_small_instances(self):
        # the first 200 instances of the exact_small distribution (seed 2024)
        # at its 30-node cap: optimal, infeasible and capped searches alike
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for _ in range(200):
            scenario, weights = random_instance(rng)
            model = build_full_model(scenario, scenario.restrictions, weights)
            sol = solve_exact(model, SolveLimits(max_nodes=30))
            outcome = (sol.status, sol.objective, sol.bound, sorted(sol.values.items()), sol.stats.nodes)
            digest.update(repr(outcome).encode())
        assert digest.hexdigest() == "2eeb2eabfceb2637db3e7eb0630bd28c659613162c32b0a2b1f97c2a52ec951d"

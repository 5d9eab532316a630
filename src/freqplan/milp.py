"""Assemble the full integer linear program as a solver-neutral model IR,
emit CPLEX-LP text, and decode solver points back into frequency plans.

Variable naming is fixed (`f_i`, `g_i`, `b_i`, `k_i`, `m_i`, `a_i`,
`z_i_j`, `y_i_j`, `p_i_j`, `s_i_j`, `d_i_j`) so emitted LP files diff
cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    ExtractionError,
    ModelBuildError,
    UnsupportedConfigurationError,
)
from .model import (
    Assignment,
    FrequencyPlan,
    ObjectiveWeights,
    RestrictionSets,
    validate_plan,
)
from .scenario import Scenario, derive_restrictions

BINARY = "binary"
INTEGER = "integer"

LE = "<="
GE = ">="
EQ = "="


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float
    upper: float
    integrality: str = INTEGER


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[float, str], ...]  # (coefficient, variable name)
    sense: str
    rhs: float


@dataclass
class MilpModel:
    """Language-neutral linear model: variables, constraints and a
    maximization objective."""

    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: tuple[tuple[float, str], ...] = ()

    def __post_init__(self):
        self._index: dict[str, int] = {v.name: i for i, v in enumerate(self.variables)}

    def add_variable(self, name: str, lower: float, upper: float, integrality: str) -> None:
        if name in self._index:
            raise ModelBuildError(f"duplicate variable {name}")
        if integrality in (BINARY, INTEGER) and not (
            lower > float("-inf") and upper < float("inf")
        ):
            raise ModelBuildError(f"integer variable {name} needs finite bounds")
        self._index[name] = len(self.variables)
        self.variables.append(Variable(name, lower, upper, integrality))

    def add_constraint(
        self,
        name: str,
        terms: Iterable[tuple[float, str]],
        sense: str,
        rhs: float,
    ) -> None:
        terms = tuple(terms)
        for _, var in terms:
            if var not in self._index:
                raise ModelBuildError(f"constraint {name} references unknown variable {var}")
        if sense not in (LE, GE, EQ):
            raise ModelBuildError(f"bad sense {sense!r}")
        self.constraints.append(Constraint(name, terms, sense, rhs))

    def set_objective(self, terms: Iterable[tuple[float, str]]) -> None:
        terms = tuple(terms)
        for _, var in terms:
            if var not in self._index:
                raise ModelBuildError(f"objective references unknown variable {var}")
        self.objective = terms

    def variable_index(self, name: str) -> int:
        return self._index[name]

    def has_variable(self, name: str) -> bool:
        return name in self._index


def build_full_model(
    scenario: Scenario,
    restrictions: RestrictionSets,
    weights: ObjectiveWeights,
    activation: bool = False,
) -> MilpModel:
    """Build the complete model: per-beam decision variables, the reuse and
    polarization decomposition, spectrum bounds, and big-M pair constraints
    for every intra- and inter-group restriction. With ``activation`` each
    beam gets a binary ``a_i`` that may switch it off.

    M = n_bw + n_rows + 2 dominates every difference in the pair rows, and
    epsilon = 1 makes their strict inequalities exact over integers.

    The power objective term is not representable here; any nonzero beta4
    is rejected (power-aware objectives live in the iterative formulation).
    """
    if weights.uses_power():
        raise UnsupportedConfigurationError(
            "beta4 != 0 is not supported by the full model; use the iterative optimizer"
        )
    grid = scenario.grid
    restrictions.check_ids(scenario.beam_ids())
    m_val = float(grid.n_bw + grid.n_rows + 2)
    eps = 1.0

    model = MilpModel()
    objective: list[tuple[float, str]] = []

    for beam in scenario.beams:
        row_lo, row_hi = beam.row_range(grid)
        slot_lo, slot_hi = beam.slot_range(grid)
        width = slot_hi - slot_lo + 1
        if beam.min_slots > width:
            raise ModelBuildError(
                f"beam {beam.id}: min_slots {beam.min_slots} exceeds allowed width {width}"
            )
        i = beam.id
        model.add_variable(f"f_{i}", slot_lo, slot_hi, INTEGER)
        model.add_variable(f"g_{i}", row_lo, row_hi, INTEGER)
        model.add_variable(f"b_{i}", beam.min_slots, width, INTEGER)
        model.add_variable(f"k_{i}", 1, grid.n_fr, INTEGER)
        model.add_variable(f"m_{i}", 0, grid.n_p - 1, INTEGER)
        if activation:
            model.add_variable(f"a_{i}", 0, 1, BINARY)

        spectrum_terms = [(1.0, f"f_{i}"), (1.0, f"b_{i}")]
        spectrum_rhs = float(slot_hi + 1)
        if activation:
            # f + b - 1 <= hi + M(1 - a)
            spectrum_terms.append((m_val, f"a_{i}"))
            spectrum_rhs += m_val
        model.add_constraint(f"spectrum_{i}", spectrum_terms, LE, spectrum_rhs)
        model.add_constraint(
            f"reuse_{i}",
            [(1.0, f"g_{i}"), (-float(grid.n_p), f"k_{i}"), (1.0, f"m_{i}")],
            EQ,
            0.0,
        )

        b1, b2, b3, _, b5 = weights.for_beam(i)
        if b1 != 0:
            objective.append((b1, f"b_{i}"))
        if b2 != 0:
            objective.append((-b2, f"g_{i}"))
        if b3 != 0:
            objective.append((-b3, f"f_{i}"))
        if activation and b5 != 0:
            objective.append((b5, f"a_{i}"))

    intra, inter = restrictions.intra, restrictions.inter

    for i, j in sorted(intra | inter):
        z = f"z_{i}_{j}"
        model.add_variable(z, 0, 1, BINARY)
        # z = 1 -> f_j >= f_i; z = 0 -> f_i >= f_j + eps
        model.add_constraint(
            f"rel_left_{i}_{j}",
            [(1.0, f"f_{j}"), (-1.0, f"f_{i}"), (-m_val, z)],
            GE,
            -m_val,
        )
        model.add_constraint(
            f"rel_right_{i}_{j}",
            [(1.0, f"f_{i}"), (-1.0, f"f_{j}"), (m_val, z)],
            GE,
            eps,
        )

        if (i, j) in intra:
            y = f"y_{i}_{j}"
            p = f"p_{i}_{j}"
            model.add_variable(y, 0, 1, BINARY)
            model.add_variable(p, 0, 1, BINARY)
            # y = 1 -> g_i = g_j
            model.add_constraint(
                f"row_eq_lo_{i}_{j}",
                [(1.0, f"g_{i}"), (-1.0, f"g_{j}"), (-m_val, y)],
                GE,
                -m_val,
            )
            model.add_constraint(
                f"row_eq_hi_{i}_{j}",
                [(1.0, f"g_{i}"), (-1.0, f"g_{j}"), (m_val, y)],
                LE,
                m_val,
            )
            # y = 0, p = 1 -> g_i > g_j ; y = 0, p = 0 -> g_i < g_j
            model.add_constraint(
                f"row_gt_{i}_{j}",
                [(1.0, f"g_{i}"), (-1.0, f"g_{j}"), (-m_val, p), (m_val, y)],
                GE,
                eps - m_val,
            )
            model.add_constraint(
                f"row_lt_{i}_{j}",
                [(1.0, f"g_{i}"), (-1.0, f"g_{j}"), (-m_val, p), (-m_val, y)],
                LE,
                -eps,
            )
            # non-overlap, active iff y = 1, gated by z
            left = [(1.0, f"f_{i}"), (1.0, f"b_{i}"), (-1.0, f"f_{j}"), (m_val, y), (m_val, z)]
            right = [(1.0, f"f_{j}"), (1.0, f"b_{j}"), (-1.0, f"f_{i}"), (m_val, y), (-m_val, z)]
            if activation:
                left += [(m_val, f"a_{i}"), (m_val, f"a_{j}")]
                right += [(m_val, f"a_{i}"), (m_val, f"a_{j}")]
                model.add_constraint(f"intra_left_{i}_{j}", left, LE, 4 * m_val)
                model.add_constraint(f"intra_right_{i}_{j}", right, LE, 3 * m_val)
            else:
                model.add_constraint(f"intra_left_{i}_{j}", left, LE, 2 * m_val)
                model.add_constraint(f"intra_right_{i}_{j}", right, LE, m_val)

        if (i, j) in inter:
            s = f"s_{i}_{j}"
            d = f"d_{i}_{j}"
            # with a single polarization s degenerates to the constant 0
            s_upper = 0 if grid.n_p == 1 else 1
            model.add_variable(s, 0, s_upper, BINARY)
            model.add_variable(d, 0, 1, BINARY)
            # s = 0 -> m_i = m_j
            model.add_constraint(
                f"pol_eq_lo_{i}_{j}",
                [(1.0, f"m_{i}"), (-1.0, f"m_{j}"), (m_val, s)],
                GE,
                0.0,
            )
            model.add_constraint(
                f"pol_eq_hi_{i}_{j}",
                [(1.0, f"m_{i}"), (-1.0, f"m_{j}"), (-m_val, s)],
                LE,
                0.0,
            )
            # s = 1, d = 0 -> m_i < m_j ; s = 1, d = 1 -> m_i > m_j
            model.add_constraint(
                f"pol_lt_{i}_{j}",
                [(1.0, f"m_{i}"), (-1.0, f"m_{j}"), (-m_val, d), (m_val, s)],
                LE,
                m_val - eps,
            )
            model.add_constraint(
                f"pol_gt_{i}_{j}",
                [(1.0, f"m_{i}"), (-1.0, f"m_{j}"), (-m_val, d), (-m_val, s)],
                GE,
                eps - 2 * m_val,
            )
            # non-overlap, active iff s = 0, gated by z
            left = [(1.0, f"f_{i}"), (1.0, f"b_{i}"), (-1.0, f"f_{j}"), (-m_val, s), (m_val, z)]
            right = [(1.0, f"f_{j}"), (1.0, f"b_{j}"), (-1.0, f"f_{i}"), (-m_val, s), (-m_val, z)]
            if activation:
                left += [(m_val, f"a_{i}"), (m_val, f"a_{j}")]
                right += [(m_val, f"a_{i}"), (m_val, f"a_{j}")]
                model.add_constraint(f"inter_left_{i}_{j}", left, LE, 3 * m_val)
                model.add_constraint(f"inter_right_{i}_{j}", right, LE, 2 * m_val)
            else:
                model.add_constraint(f"inter_left_{i}_{j}", left, LE, m_val)
                model.add_constraint(f"inter_right_{i}_{j}", right, LE, 0.0)

    model.set_objective(objective)
    return model


# --- LP-format emission ---------------------------------------------------


def _format_coef(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_terms(terms: Iterable[tuple[float, str]]) -> str:
    parts: list[str] = []
    for coef, var in terms:
        if not parts:
            parts.append(f"{_format_coef(coef)} {var}")
        elif coef >= 0:
            parts.append(f"+ {_format_coef(coef)} {var}")
        else:
            parts.append(f"- {_format_coef(-coef)} {var}")
    return " ".join(parts)


def emit_lp(model: MilpModel) -> str:
    """Render the model as CPLEX-LP text, deterministically.

    An empty objective is emitted as the documented `obj: 0 x_dummy`
    placeholder so the section is never blank.
    """
    lines = ["Maximize"]
    if model.objective:
        lines.append(f" obj: {_format_terms(model.objective)}")
    else:
        lines.append(" obj: 0 x_dummy")
    lines.append("Subject To")
    for con in model.constraints:
        sense = {LE: "<=", GE: ">=", EQ: "="}[con.sense]
        lines.append(f" {con.name}: {_format_terms(con.terms)} {sense} {_format_coef(con.rhs)}")
    lines.append("Bounds")
    for var in model.variables:
        lines.append(f" {_format_coef(var.lower)} <= {var.name} <= {_format_coef(var.upper)}")
    generals = [v.name for v in model.variables if v.integrality == INTEGER]
    binaries = [v.name for v in model.variables if v.integrality == BINARY]
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


INTEGRALITY_TOL = 1e-6


def extract_plan(model: MilpModel, solution, scenario: Scenario) -> FrequencyPlan:
    """Decode a feasible/optimal solver point into a FrequencyPlan.

    Integer variables must sit within 1e-6 of an integer. The decoded plan
    is checked with validate_plan against derive_restrictions(scenario): the
    embedded restriction sets, else the derived ones. Violations raise
    ExtractionError.
    """
    if solution.status not in ("optimal", "feasible"):
        raise ExtractionError(f"cannot extract from status {solution.status!r}")

    def _int_value(name: str) -> int:
        raw = solution.values[name]
        rounded = round(raw)
        if abs(raw - rounded) > INTEGRALITY_TOL:
            raise ExtractionError(f"{name} = {raw} is not integral")
        return int(rounded)

    assignments: dict[int, Assignment] = {}
    for beam in scenario.beams:
        i = beam.id
        active = True
        if model.has_variable(f"a_{i}"):
            active = _int_value(f"a_{i}") >= 1
        if active:
            assignments[i] = Assignment(
                f=_int_value(f"f_{i}"), g=_int_value(f"g_{i}"), b=_int_value(f"b_{i}")
            )
        else:
            assignments[i] = Assignment.inactive()
    plan = FrequencyPlan(assignments)

    violations = validate_plan(plan, scenario.grid, derive_restrictions(scenario), scenario.beams)
    if violations:
        raise ExtractionError(
            "decoded plan is invalid: " + "; ".join(str(v) for v in violations)
        )
    return plan

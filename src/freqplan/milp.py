"""Assemble the full integer linear program as a solver-neutral model IR,
emit CPLEX-LP text, and decode solver points back into frequency plans.

Variable naming is fixed (`f_i`, `g_i`, `b_i`, `k_i`, `m_i`, `a_i`,
`z_i_j`, `y_i_j`, `p_i_j`, `s_i_j`, `d_i_j`) so emitted LP files diff
cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

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

_INF = float("inf")
_INTEGRAL = frozenset((BINARY, INTEGER))
_SENSES = frozenset((LE, GE, EQ))


def _bad_term(owner: str, coef: float, var: str, index: dict[str, int]) -> str:
    """Why a term fails: an unknown variable, or a coefficient that is
    infinite or NaN (``coef - coef`` is 0.0 for every finite one)."""
    if var not in index:
        return f"{owner} references unknown variable {var}"
    return f"{owner} has a non-finite coefficient {coef} of {var}"


class Variable(NamedTuple):
    name: str
    lower: float
    upper: float
    integrality: str = INTEGER


class Constraint(NamedTuple):
    name: str
    terms: tuple[tuple[float, str], ...]  # (coefficient, variable name)
    sense: str
    rhs: float


# builds a Variable or Constraint from its field tuple: the call that their
# generated __new__ wraps in a Python frame, which costs as much again
_record = tuple.__new__


@dataclass
class MilpModel:
    """Language-neutral linear model: variables, constraints and a
    maximization objective. A coefficient is finite; an rhs or a bound may
    be infinite but not NaN. Only the checked add_variable, add_constraint
    and set_objective fill a model; the constructor takes no contents."""

    variables: list[Variable] = field(default_factory=list, init=False)
    constraints: list[Constraint] = field(default_factory=list, init=False)
    objective: tuple[tuple[float, str], ...] = field(default=(), init=False)

    def __post_init__(self):
        self._index: dict[str, int] = {}  # variable name -> position

    def add_variable(self, name: str, lower: float, upper: float, integrality: str) -> None:
        index = self._index
        if name in index:
            raise ModelBuildError(f"duplicate variable {name}")
        if lower != lower or upper != upper:
            raise ModelBuildError(f"variable {name} has a NaN bound")
        if integrality in _INTEGRAL and not (-_INF < lower and upper < _INF):
            raise ModelBuildError(f"integer variable {name} needs finite bounds")
        index[name] = len(self.variables)
        self.variables.append(_record(Variable, (name, lower, upper, integrality)))

    def add_constraint(
        self,
        name: str,
        terms: Iterable[tuple[float, str]],
        sense: str,
        rhs: float,
    ) -> None:
        terms = tuple(terms)  # a tuple passes through uncopied
        index = self._index
        for coef, var in terms:
            if var not in index or coef - coef:  # see _bad_term
                raise ModelBuildError(_bad_term(f"constraint {name}", coef, var, index))
        if sense not in _SENSES:
            raise ModelBuildError(f"bad sense {sense!r}")
        if rhs != rhs:
            raise ModelBuildError(f"constraint {name} has a NaN rhs")
        self.constraints.append(_record(Constraint, (name, terms, sense, rhs)))

    def set_objective(self, terms: Iterable[tuple[float, str]]) -> None:
        terms = tuple(terms)
        for coef, var in terms:
            if var not in self._index or coef - coef:
                raise ModelBuildError(_bad_term("objective", coef, var, self._index))
        self.objective = terms

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
    neg_m = -m_val
    neg_n_p = -float(grid.n_p)

    model = MilpModel()
    add_variable, add_constraint = model.add_variable, model.add_constraint
    objective: list[tuple[float, str]] = []
    # per beam id, its (+-1, name) terms and, with activation, its (M, a_i)
    # term: each built once and shared by every row that uses it
    terms_of: dict[int, tuple] = {}
    b1, b2, b3, _, b5 = weights.coefficients()

    for beam in scenario.beams:
        row_lo, row_hi = beam.row_range(grid)
        slot_lo, slot_hi = beam.slot_range(grid)
        width = slot_hi - slot_lo + 1
        if beam.min_slots > width:
            raise ModelBuildError(
                f"beam {beam.id}: min_slots {beam.min_slots} exceeds allowed width {width}"
            )
        i = beam.id
        f, g, b, k, m = f"f_{i}", f"g_{i}", f"b_{i}", f"k_{i}", f"m_{i}"
        add_variable(f, slot_lo, slot_hi, INTEGER)
        add_variable(g, row_lo, row_hi, INTEGER)
        add_variable(b, beam.min_slots, width, INTEGER)
        add_variable(k, 1, grid.n_fr, INTEGER)
        add_variable(m, 0, grid.n_p - 1, INTEGER)
        plus_f, plus_b, plus_g, plus_m = (1.0, f), (1.0, b), (1.0, g), (1.0, m)
        gate = ()
        if activation:
            a = f"a_{i}"
            add_variable(a, 0, 1, BINARY)
            gate = ((m_val, a),)
            # f + b - 1 <= hi + M(1 - a)
            add_constraint(f"spectrum_{i}", (plus_f, plus_b, *gate), LE, float(slot_hi + 1) + m_val)
        else:
            add_constraint(f"spectrum_{i}", (plus_f, plus_b), LE, float(slot_hi + 1))
        add_constraint(f"reuse_{i}", (plus_g, (neg_n_p, k), plus_m), EQ, 0.0)
        terms_of[i] = (plus_f, (-1.0, f), plus_b, plus_g, (-1.0, g), plus_m, (-1.0, m), gate)

        if b1 != 0:
            objective.append((b1, b))
        if b2 != 0:
            objective.append((-b2, g))
        if b3 != 0:
            objective.append((-b3, f))
        if activation and b5 != 0:
            objective.append((b5, a))

    kinds = dict.fromkeys(map(tuple, restrictions.pairs["intra"].tolist()), 1)  # 1 intra, 2 inter, 3 both
    for pair in map(tuple, restrictions.pairs["inter"].tolist()):
        kinds[pair] = kinds.get(pair, 0) | 2
    # the rhs of each pair row, in the order the rows are added below
    intra_rhs = (4 * m_val, 3 * m_val) if activation else (2 * m_val, m_val)
    inter_rhs = (3 * m_val, 2 * m_val) if activation else (m_val, 0.0)
    row_gt_rhs, pol_lt_rhs, pol_gt_rhs = eps - m_val, m_val - eps, eps - 2 * m_val
    s_upper = 0 if grid.n_p == 1 else 1  # with a single polarization s is the constant 0

    for (i, j), kind in sorted(kinds.items()):
        plus_f_i, minus_f_i, plus_b_i, plus_g_i, _, plus_m_i, _, gate_i = terms_of[i]
        plus_f_j, minus_f_j, plus_b_j, _, minus_g_j, _, minus_m_j, gate_j = terms_of[j]
        gates = gate_i + gate_j  # () without activation
        ij = f"{i}_{j}"
        z = f"z_{ij}"
        add_variable(z, 0, 1, BINARY)
        plus_z, minus_z = (m_val, z), (neg_m, z)
        # z = 1 -> f_j >= f_i; z = 0 -> f_i >= f_j + eps
        add_constraint(f"rel_left_{ij}", (plus_f_j, minus_f_i, minus_z), GE, neg_m)
        add_constraint(f"rel_right_{ij}", (plus_f_i, minus_f_j, plus_z), GE, eps)

        if kind & 1:
            y, p = f"y_{ij}", f"p_{ij}"
            add_variable(y, 0, 1, BINARY)
            add_variable(p, 0, 1, BINARY)
            plus_y, minus_y, minus_p = (m_val, y), (neg_m, y), (neg_m, p)
            # y = 1 -> g_i = g_j
            add_constraint(f"row_eq_lo_{ij}", (plus_g_i, minus_g_j, minus_y), GE, neg_m)
            add_constraint(f"row_eq_hi_{ij}", (plus_g_i, minus_g_j, plus_y), LE, m_val)
            # y = 0, p = 1 -> g_i > g_j ; y = 0, p = 0 -> g_i < g_j
            add_constraint(f"row_gt_{ij}", (plus_g_i, minus_g_j, minus_p, plus_y), GE, row_gt_rhs)
            add_constraint(f"row_lt_{ij}", (plus_g_i, minus_g_j, minus_p, minus_y), LE, -eps)
            # non-overlap, active iff y = 1, gated by z
            left = (plus_f_i, plus_b_i, minus_f_j, plus_y, plus_z) + gates
            right = (plus_f_j, plus_b_j, minus_f_i, plus_y, minus_z) + gates
            add_constraint(f"intra_left_{ij}", left, LE, intra_rhs[0])
            add_constraint(f"intra_right_{ij}", right, LE, intra_rhs[1])

        if kind & 2:
            s, d = f"s_{ij}", f"d_{ij}"
            add_variable(s, 0, s_upper, BINARY)
            add_variable(d, 0, 1, BINARY)
            plus_s, minus_s, minus_d = (m_val, s), (neg_m, s), (neg_m, d)
            # s = 0 -> m_i = m_j
            add_constraint(f"pol_eq_lo_{ij}", (plus_m_i, minus_m_j, plus_s), GE, 0.0)
            add_constraint(f"pol_eq_hi_{ij}", (plus_m_i, minus_m_j, minus_s), LE, 0.0)
            # s = 1, d = 0 -> m_i < m_j ; s = 1, d = 1 -> m_i > m_j
            add_constraint(f"pol_lt_{ij}", (plus_m_i, minus_m_j, minus_d, plus_s), LE, pol_lt_rhs)
            add_constraint(f"pol_gt_{ij}", (plus_m_i, minus_m_j, minus_d, minus_s), GE, pol_gt_rhs)
            # non-overlap, active iff s = 0, gated by z
            left = (plus_f_i, plus_b_i, minus_f_j, minus_s, plus_z) + gates
            right = (plus_f_j, plus_b_j, minus_f_i, minus_s, minus_z) + gates
            add_constraint(f"inter_left_{ij}", left, LE, inter_rhs[0])
            add_constraint(f"inter_right_{ij}", right, LE, inter_rhs[1])

    model.set_objective(objective)
    return model


# --- LP-format emission ---------------------------------------------------


def _format_number(value: float) -> str:
    if value in (_INF, -_INF):
        return "+inf" if value > 0 else "-inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


class _Texts(dict):
    """value -> text, each distinct value formatted once by ``to_text``."""

    def __init__(self, to_text):
        super().__init__()
        self.to_text = to_text

    def __missing__(self, value):
        text = self[value] = self.to_text(value)
        return text


def emit_lp(model: MilpModel) -> str:
    """Render the model as CPLEX-LP text, deterministically.

    An empty objective is emitted as the documented `obj: 0 x_dummy`
    placeholder so the section is never blank. An infinite rhs or bound is
    written as `+inf` or `-inf`. Each distinct number is formatted once per
    call.
    """
    number = _Texts(_format_number)
    # a term after the first one: "+ c" or "- |c|"
    signed = _Texts(lambda c: f"+ {number[c]}" if c >= 0 else f"- {number[-c]}")

    def linear(terms) -> str:
        if not terms:
            return ""
        (coef, var), rest = terms[0], terms[1:]
        return " ".join([f"{number[coef]} {var}", *[f"{signed[c]} {v}" for c, v in rest]])

    lines = ["Maximize"]
    if model.objective:
        lines.append(f" obj: {linear(model.objective)}")
    else:
        lines.append(" obj: 0 x_dummy")
    lines.append("Subject To")
    lines += [
        f" {name}: {linear(terms)} {sense} {number[rhs]}"  # add_constraint admits only LE, GE, EQ
        for name, terms, sense, rhs in model.constraints
    ]
    lines.append("Bounds")
    lines += [
        f" {number[lower]} <= {name} <= {number[upper]}"
        for name, lower, upper, _ in model.variables
    ]
    generals = [v.name for v in model.variables if v.integrality == INTEGER]
    binaries = [v.name for v in model.variables if v.integrality == BINARY]
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    lines += ["End", ""]  # the empty last line ends the text with a newline
    return "\n".join(lines)


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

"""Frequency-plan design for multibeam satellite constellations.

The package covers the whole pipeline: scenario generation and routing,
exact integer-programming formulation of the non-overlap constraints,
an exact branch-and-bound solver, an iteration-based option-ranking
optimizer, a link-budget power model, plan validation, and rendering.
"""

from .errors import (
    DomainError,
    ExtractionError,
    FreqplanError,
    InstanceTooLargeError,
    ModelBuildError,
    PlanStructureError,
    RoutingError,
    ScenarioFormatError,
    UnsupportedConfigurationError,
    UnsupportedModelError,
)
from .iterative import (
    IterationConfig,
    IterationTrace,
    OptionSet,
    TraceRecord,
    enumerate_options,
    export_trace,
    greedy_warm_start,
    optimize,
)
from .milp import MilpModel, build_full_model, emit_lp, extract_plan
from .model import (
    Assignment,
    Beam,
    FrequencyGrid,
    FrequencyPlan,
    ObjectiveWeights,
    RestrictionSets,
    Violation,
    decompose_reuse,
    load_plan_csv,
    objective_value,
    overlaps,
    save_plan_csv,
    total_normalized_bandwidth,
    validate_plan,
)
from .power import (
    DEFAULT_MODCODS,
    LinkBudget,
    ModCod,
    ModCodTable,
    PowerResult,
    PowerTable,
    beam_power,
    fspl_db,
    load_modcod_csv,
    power_tables_for,
    required_spectral_efficiency,
    select_modcod,
)
from .render import render_plan_svg
from .scenario import (
    ConstellationGeometry,
    GenerationParams,
    Scenario,
    derive_restrictions,
    generate_synthetic,
    load_scenario,
    route_beams,
    save_scenario,
)
from .solver import (
    OracleResult,
    Solution,
    SolveLimits,
    brute_force_best_plan,
    solve_exact,
)

__version__ = "1.0.0"

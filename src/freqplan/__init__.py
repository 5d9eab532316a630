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
    SolutionImportError,
    UnsupportedConfigurationError,
    UnsupportedModelError,
)
from .iterative import (
    BeamOption,
    IterationConfig,
    IterationTrace,
    OptionSet,
    TraceRecord,
    build_subproblem,
    enumerate_options,
    export_trace,
    greedy_warm_start,
    optimize,
    score_option,
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
    compose_reuse,
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
    with_restrictions,
)
from .solver import (
    OracleResult,
    Solution,
    SolveLimits,
    brute_force_best_plan,
    check_solution,
    import_solution,
    solve_exact,
    write_solution,
)

__version__ = "1.0.0"

"""Exception hierarchy shared across the package."""


class FreqplanError(Exception):
    """Base class for all package errors."""


class DomainError(FreqplanError, ValueError):
    """An argument falls outside its documented domain."""


class PlanStructureError(FreqplanError):
    """A frequency plan is structurally broken (e.g. missing a beam)."""


class ScenarioFormatError(FreqplanError):
    """A scenario file violates the schema.

    ``field`` names the offending field path, e.g. ``grid.n_bw``.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class RoutingError(FreqplanError):
    """A beam has no visible satellite at some routing step."""

    def __init__(self, beam_id: int, step_min: float):
        self.beam_id = beam_id
        self.step_min = step_min
        super().__init__(
            f"beam {beam_id} has no visible satellite at t={step_min} min"
        )


class ModelBuildError(FreqplanError):
    """The MILP cannot be assembled from the given scenario."""


class UnsupportedConfigurationError(FreqplanError):
    """A configuration is outside what the component supports."""


class UnsupportedModelError(FreqplanError):
    """The exact solver received a model it does not handle."""


class ExtractionError(FreqplanError):
    """A solver point cannot be decoded into a valid plan."""


class InstanceTooLargeError(FreqplanError):
    """Brute-force enumeration would exceed the safety guard."""

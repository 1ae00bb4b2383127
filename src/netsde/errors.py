"""Exception hierarchy for netsde.

Every error the package raises deliberately derives from NetsdeError so
callers (in particular the CLI) can map failures to exit codes without
catching bare Exception.
"""


class NetsdeError(Exception):
    """Base class for all netsde errors."""


class ConfigurationError(NetsdeError):
    """Bad user input that is not a schema problem (values out of range etc.)."""


# --- graph construction -------------------------------------------------

class EmptyEdgeList(ConfigurationError):
    pass


class VertexIdOutOfRange(ConfigurationError):
    pass


class DisconnectedGraph(ConfigurationError):
    pass


class LoopEdge(ConfigurationError):
    """Edges with both endpoints at the same vertex are rejected."""


class DimensionMismatch(ConfigurationError):
    pass


# --- coefficient data ----------------------------------------------------

class NonpositiveConductance(ConfigurationError):
    pass


class NegativePotential(ConfigurationError):
    pass


class NonpositiveWeight(ConfigurationError):
    pass


class NonpositiveBeta(ConfigurationError):
    pass


# --- discretization and linear algebra ------------------------------------

class MeshTooCoarse(ConfigurationError):
    pass


class VertexMismatch(ConfigurationError):
    """Supplied edge functions disagree at a shared vertex."""


class FactorizationFailure(NetsdeError):
    pass


class LinearSolveFailure(NetsdeError):
    pass


class ValidationFailure(NetsdeError):
    """A mandatory validation report did not pass.

    Carries the offending report in ``report`` for inspection.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# --- stochastic solver ----------------------------------------------------

class DecayTooSlow(ConfigurationError):
    """Colored-noise spectral decay exponent must exceed 1/2."""


class BlowupDetected(NetsdeError):
    """State norm exceeded the configured guard during time stepping."""

    def __init__(self, message, trajectory_id=None, step=None):
        super().__init__(message)
        self.trajectory_id = trajectory_id
        self.step = step


# --- estimators -----------------------------------------------------------

class InsufficientResolution(ConfigurationError):
    """Time step is not small enough relative to the smallest lag."""


class LadderTooShort(ConfigurationError):
    pass


# --- configuration files ----------------------------------------------------

class SchemaViolation(ConfigurationError):
    """Config file failed schema validation; ``errors`` lists (json_path, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.errors)
        super().__init__(f"invalid configuration: {lines}")


class ExpressionParseError(ConfigurationError):
    """Expression string could not be parsed; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpressionEvaluationError(ConfigurationError):
    """A constant expression divides by zero, overflows or is complex."""

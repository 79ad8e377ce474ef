"""Exception types shared across the package."""


class AnchorkitError(Exception):
    """Base class for all package-specific errors.

    ``code`` is the machine-readable name the CLI prints for the error: the
    one given at the raise, else the class's ``code``, else the class name
    in capitals.
    """

    code: str | None = None

    def __init__(self, *args, code: str | None = None):
        super().__init__(*args)
        self.code = code or type(self).code or type(self).__name__.upper()


class DimensionMismatch(AnchorkitError):
    """Vector or matrix dimensions do not agree."""


class DomainViolation(AnchorkitError):
    """A point left the open domain of a problem."""

    code = "DOMAIN_VIOLATION"


class NoResolventCapability(AnchorkitError):
    """The operator cannot evaluate a resolvent."""


class NoForwardEvaluation(AnchorkitError):
    """The operator is represented only through its resolvent/prox."""


class InnerLoopBudgetExceeded(AnchorkitError):
    """An iterative inner solve did not reach its tolerance within budget."""


class ConfigError(AnchorkitError):
    """Algorithm or experiment configuration is invalid for the problem."""

    code = "CONFIG_ERROR"


class StepSizeCollapse(AnchorkitError):
    """A varying step-size schedule produced a nonpositive or inadmissible step."""


class MismatchedTraces(AnchorkitError):
    """Two traces cannot be compared (length, dimension, or start differ)."""


class MissingReferencePoint(AnchorkitError):
    """A rate bound needs a reference point that is unavailable."""


class SingularSystem(AnchorkitError):
    """A linear system has no solution or infinitely many."""


class InfeasibleConstants(AnchorkitError):
    """Requested regularity constants (L, mu) cannot be realized."""


class StepTooLarge(AnchorkitError):
    """A step size is outside the certified range of a constant or bound."""

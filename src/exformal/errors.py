"""Exception hierarchy shared by all engine modules."""


class ExformalError(Exception):
    """Base class for every error raised by this package."""


class ExprSyntaxError(ExformalError):
    """Malformed expression text.

    Carries the bare ``message``, the 0-based character ``position`` of the
    offending token and the list of token kinds that would have been
    ``expected`` there; ``str()`` of the error is the message followed by
    the position.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}")
        self.message = message
        self.position = position
        self.expected = tuple(expected)


class UnknownSymbolError(ExformalError):
    """Identifier is neither a chart coordinate, a parameter, nor a function."""

    def __init__(self, name, position=None):
        loc = "" if position is None else f" at position {position}"
        super().__init__(f"unknown symbol '{name}'{loc}")
        self.name = name
        self.position = position


class UnboundSymbolError(ExformalError):
    """Numeric evaluation hit a symbol or function with no binding."""


class DomainError(ExformalError):
    """Numeric evaluation left the domain (log/sqrt of a negative,
    division by zero, or a near-singular denominator under a guard)."""


class ChartError(ExformalError):
    """A chart does not satisfy an operation's shape requirements."""


class ChartMismatchError(ExformalError):
    """Operands live on different charts."""


class DegreeError(ExformalError):
    """Form degrees do not satisfy an operation's requirements."""


class SingularMetricError(ExformalError):
    """Metric determinant is identically zero."""


class MetricValidationError(ExformalError):
    """Metric failed a structural check (symmetry, inverse, det sign)."""


class DegenerateLagrangianError(ExformalError):
    """Velocity Hessian is identically singular; no Hamiltonian exists."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PatternMismatchError(ExformalError):
    """Hamiltonian is not quadratic in the momenta."""


class NotVerifiableError(ExformalError):
    """A candidate (integrating factor, potential) was constructed but the
    defining identity could not be confirmed to vanish."""


class ScenarioError(ExformalError):
    """Scenario file failed validation (unresolved name, bad shape, ...)."""

"""Exception types shared across the package."""


class Few2DError(Exception):
    """Base class for all errors raised by this package."""


class SingularPoint(Few2DError):
    """Evaluation requested on (or within tolerance of) a singular line."""

    def __init__(self, line: str, detail: str = ""):
        self.line = line
        msg = f"point lies on singular line {line}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class BoundViolation(Few2DError):
    """A coupling violates the solvability bound (e.g. an angular coupling <= -k^2/4)."""


class ZeroK(Few2DError):
    """k is not a positive rational or a finite positive real (``model.coerce_k``)."""


class NonPositiveMassOrFrequency(Few2DError):
    """Masses, frequencies and scale couplings must be strictly positive."""


class NonPositiveMass(NonPositiveMassOrFrequency):
    pass


class NonPositiveDistance(Few2DError):
    """Pair distances must be strictly positive."""


class PotentialNotJacobiRadial(Few2DError):
    """3-body mapping requires a potential depending on Jacobi distances only."""


class BridgeMismatch(Few2DError):
    """Coordinate bridge produced a point outside the target chart's domain."""


class GridTooCoarse(Few2DError):
    """Fewer grid nodes than the minimum supported per axis."""


class SingularNodeUnavoidable(Few2DError):
    """No grid offset removes the collision with a singular line."""


class DimensionMismatch(Few2DError):
    """Operator/vector dimensions are incompatible."""


class NotSeparable(Few2DError):
    """Separated-variable oracle requested for a non-separable potential."""


class NotRational(Few2DError):
    """Finite integral order is only defined for rational k."""


class AccuracyNotReached(Few2DError):
    """1D solver could not certify the requested accuracy; ``detail``, if
    given, replaces the message with what failed where."""

    def __init__(self, achieved: float, target: float, detail: str = ""):
        self.achieved = achieved
        self.target = target
        super().__init__(
            detail or f"requested relative accuracy {target:g}, achieved estimate {achieved:g}"
        )


class ConfigError(Few2DError, ValueError):
    """Run configuration failed schema validation; a ``ValueError`` for library callers."""

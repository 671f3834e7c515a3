"""Exception types shared across the toolkit."""


class LocalGraphsError(Exception):
    """Base class for all toolkit errors."""


class NonGraphical(LocalGraphsError):
    """The requested degree sequence admits no simple graph."""


class AttemptsExhausted(LocalGraphsError):
    """A rejection sampler ran out of attempts."""

    def __init__(self, attempts, message=None):
        self.attempts = attempts
        super().__init__(message or f"no valid sample within {attempts} attempts")


class CountMismatch(LocalGraphsError):
    """Mark count vectors are inconsistent with the degree sequence."""


class InvalidSequence(LocalGraphsError):
    """A colored degree sequence violates the symmetry/evenness constraints."""


class InconsistentColors(LocalGraphsError):
    """The two directed colors of an edge are not conjugate."""


class Infeasible(LocalGraphsError):
    """The mass-transport modification cannot be carried out."""


class CapExceeded(LocalGraphsError):
    """An enumeration request exceeds the configured size cap."""


class RangeViolation(LocalGraphsError):
    """A supplied entropy value lies outside its admissible range."""


class UndecodableCode(LocalGraphsError, ValueError):
    """A code that describes no connected rooted graph, at position ``index``."""

    def __init__(self, index: int):
        super().__init__(f"code {index} does not decode to a rooted graph")
        self.index = index

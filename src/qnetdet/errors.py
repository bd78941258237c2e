"""Exception types raised by the public API.

Every error below derives from QnetdetError so callers can catch the
whole family at once.  The CLI maps the classes to process exit codes.
"""

from __future__ import annotations


class QnetdetError(Exception):
    """Base class for all qnetdet errors."""


class EmptyInput(QnetdetError):
    """A vector argument was empty."""


class NegativeEntry(QnetdetError):
    """A vector argument contained an entry below -1e-12."""


class NonFiniteEntry(QnetdetError):
    """A vector argument contained NaN or an infinity."""


class ZeroSum(QnetdetError):
    """A vector argument sums to zero and cannot be normalized."""


class LengthMismatch(QnetdetError):
    """Two vector arguments were required to share a length."""


class KOutOfRange(QnetdetError):
    """Concurrence order k outside 1..d."""


class EmptyEnsemble(QnetdetError):
    """A probabilistic ensemble had no outcomes."""


class ShapeMismatch(QnetdetError):
    """Measurement elements are not a non-empty stack of equally sized
    square matrices, or a dimension is not positive."""


class DimensionTooLarge(QnetdetError):
    """Local dimension above what the verification suite supports (8)."""


class DimensionMismatch(QnetdetError):
    """Two Schmidt vectors were required to share a dimension."""


class DimensionTooSmall(QnetdetError):
    """Target dimension is smaller than allowed for the operation."""


class LengthMismatchAfterPadding(QnetdetError):
    """Target vector longer than the source; zero padding cannot fix it."""


class InvalidPovm(QnetdetError):
    """Measurement set failed the completeness relation."""


class SchemaError(QnetdetError):
    """Network description violated the JSON schema."""


class DanglingEndpoint(QnetdetError):
    """Edge endpoint missing or not a non-empty string."""


class MixedDimensions(QnetdetError):
    """Links of different local dimension in one network."""


class MissingTerminal(QnetdetError):
    """Terminals are not two distinct named nodes."""


class NotSeriesParallel(QnetdetError):
    """Reduction stalled; the network has no series-parallel decomposition.

    Attributes
    ----------
    remnant : list of (str, str) or None
        Edge endpoints of the irreducible remainder graph, if known.
    """

    def __init__(self, message: str, remnant=None):
        super().__init__(message)
        self.remnant = remnant


class DisconnectedTerminals(QnetdetError):
    """No path between the two terminals."""


class SingularNormalizer(QnetdetError):
    """Random measurement draw produced a numerically singular normalizer."""


class DimensionNotTwo(QnetdetError):
    """Check only defined for qubit links (d = 2)."""


class RejectionBudgetExceeded(QnetdetError):
    """Rejection sampler ran out of attempts before acceptance."""

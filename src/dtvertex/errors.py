"""Exception types shared across the package."""


class DTVertexError(Exception):
    """Base class; `partition` optionally records the offending partition key."""

    def __init__(self, message, partition=None):
        super().__init__(message)
        self.partition = partition


class DimensionMismatch(DTVertexError):
    """Operands live in Laurent rings of different dimensions."""


class ExponentOverflow(DTVertexError):
    """An exponent of a KClass may leave the range its packed keys can hold."""


class ArityMismatch(DTVertexError):
    """Partition arity does not match the requested ambient dimension."""


class ZeroWeightDenominator(DTVertexError):
    """A zero torus weight appeared with negative multiplicity in an Euler class."""


class NotAPerfectSquare(DTVertexError):
    """Euler class of the vertex is not a perfect square of linear forms."""


class ShapeMismatch(DTVertexError):
    """A specialized weight does not have the predicted polynomial shape."""


class DegenerateSamplePoint(DTVertexError):
    """Random evaluation point hit a vanishing form too many times."""

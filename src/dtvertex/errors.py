"""Exception types shared across the package, and naming, which sets their partition."""

import contextlib


class DTVertexError(Exception):
    """Base class; `partition`, the offending partition's key, is set by naming."""

    partition = None


@contextlib.contextmanager
def naming(pi):
    """Name pi on a DTVertexError raised inside that names no partition
    yet, so the innermost entry wins, and re-raise it."""
    try:
        yield
    except DTVertexError as exc:
        if exc.partition is None:
            exc.partition = pi.serialize()
        raise


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

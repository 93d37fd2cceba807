"""Sparse integer Laurent polynomials in t_1..t_d and the equivariant vertex.

A KClass is a finite map from exponent vectors in Z^d to non-zero
integer coefficients.  It carries the torus character of a box stack,
the vertex class of its ideal, and everything derived from them.  All
arithmetic is exact over Z; division by the coordinate product is
multiplication by the inverse monomial and never a polynomial division.
"""

from __future__ import annotations

from .errors import ArityMismatch, DimensionMismatch
from .partitions import MultiPartition

KEY_OK = "ok"
KEY_EULER_VANISHES = "euler_vanishes"
KEY_VIOLATED = "violated"


class KClass:
    """Laurent polynomial with integer coefficients, exponentwise sparse."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = {tuple(w): int(c) for w, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def one(cls, dim):
        return cls(dim, {(0,) * dim: 1})

    @classmethod
    def monomial(cls, dim, w, c=1):
        return cls(dim, {tuple(w): c})

    def is_zero(self):
        return not self.terms

    def coefficient(self, w):
        return self.terms.get(tuple(w), 0)

    def rank(self):
        """Sum of all coefficients, i.e. evaluation at t = 1."""
        return sum(self.terms.values())

    def __eq__(self, other):
        return (
            isinstance(other, KClass) and self.dim == other.dim and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def _check(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(
                "dimension %d vs %d" % (self.dim, other.dim)
            )

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return KClass(self.dim, out)

    def __neg__(self):
        return KClass(self.dim, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return KClass(self.dim, {w: c * other for w, c in self.terms.items()})
        self._check(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    del out[w]
        return KClass(self.dim, out)

    __rmul__ = __mul__

    def shift(self, w):
        """Multiply by the monomial t^w (exact in the Laurent ring)."""
        w = tuple(w)
        return KClass(
            self.dim, {tuple(a + b for a, b in zip(v, w)): c for v, c in self.terms.items()}
        )

    def bar(self):
        """The involution t^w -> t^(-w)."""
        return KClass(self.dim, {tuple(-a for a in w): c for w, c in self.terms.items()})

    def serialize(self):
        """Sorted [[exponent vector, coefficient], ...] debug form."""
        return [[list(w), self.terms[w]] for w in sorted(self.terms)]

    def __repr__(self):
        return "KClass(%d, %d terms)" % (self.dim, len(self.terms))


def character(pi, d):
    """Torus character of the box stack of a (d-1)-partition.

    Each box (0-based cell) contributes one monomial; the number of
    terms equals the partition size.
    """
    if not isinstance(pi, MultiPartition) or pi.arity != d - 1:
        raise ArityMismatch("expected a partition of arity %d" % (d - 1,))
    return KClass(d, {cell: 1 for cell in pi.cells()})


def vertex(pi, d):
    """Equivariant vertex of a (d-1)-partition, over the full torus.

    With Z the character of the box stack and sgn = (-1)^d:

        V = Z + sgn * bar(Z) / (t_1..t_d)
              - sgn * Z * bar(Z) * (1-t_1)..(1-t_d) / (t_1..t_d)

    computed exactly by clearing the monomial denominator, with no torus
    relation imposed.
    """
    z = character(pi, d)
    if z.is_zero():
        return KClass.zero(d)
    sgn = -1 if d % 2 else 1
    inv = (-1,) * d
    zbar = z.bar()
    prod = z * zbar
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        prod = prod - prod.shift(e)
    return z + sgn * zbar.shift(inv) - sgn * prod.shift(inv)


def cy_reduce(a):
    """Normal form modulo t_1..t_d = 1.

    Every exponent vector w is replaced by w - w_d * (1,..,1), so the
    last exponent becomes 0; coefficients merge.  Idempotent.
    """
    out = {}
    for w, c in a.terms.items():
        m = w[-1]
        v = tuple(x - m for x in w) if m else w
        s = out.get(v, 0) + c
        if s:
            out[v] = s
        else:
            del out[v]
    return KClass(a.dim, out)


def cy_fixed_part(a):
    """Coefficient of the torus-fixed (zero) weight after reduction."""
    return cy_reduce(a).coefficient((0,) * a.dim)


def key_verdict(v):
    """Classify the torus-fixed multiplicity of an already-built vertex.

    ok             fixed part is 0; the Euler ratio is a unit
    euler_vanishes fixed part < 0; the Euler class of -V vanishes
    violated       fixed part > 0; the Euler ratio denominator vanishes
    """
    c = cy_fixed_part(v)
    if c == 0:
        return KEY_OK
    return KEY_VIOLATED if c > 0 else KEY_EULER_VANISHES


def check_key_conjecture(pi, d):
    """key_verdict of the vertex of a (d-1)-partition."""
    return key_verdict(vertex(pi, d))


def vertex_half(pi, d):
    """Half of the vertex: Z - Z * bar(Z) * prod_{i<d} (1 - t_i^-1).

    Z is the character of the box stack and the product runs over the
    first d-1 directions only.  With v this class and cy = cy_reduce,
    cy(V) = cy(v) + (-1)^d * cy(bar(v)) for every d.
    """
    z = character(pi, d)
    prod = z * z.bar()
    for i in range(d - 1):
        e = tuple(-1 if j == i else 0 for j in range(d))
        prod = prod - prod.shift(e)
    return z - prod

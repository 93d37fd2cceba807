"""Dense exact univariate polynomials over Q.

These are the coefficient containers for everything that depends on the
line-bundle exponent parameter (rendered as ``ell``) and for truncated
power series.  All arithmetic is exact, built on fractions.Fraction:
every stored coefficient is a Fraction, and a coefficient that already
is one is stored as it is, not wrapped again.  A QPoly is immutable, so
a value may be shared and memoized.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple([c if isinstance(c, Fraction) else Fraction(c) for c in coeffs[:n]])


class QPoly:
    """Polynomial in one variable, coefficients listed from degree 0 up."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(tuple(coeffs))

    @classmethod
    def const(cls, c):
        return cls((Fraction(c),))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((Fraction(1),))

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %r" % (self,))
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(tuple(self.coefficient(i) + other.coefficient(i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return QPoly((Fraction(0),) * k + self.coeffs)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divide(self, other):
        """Return (quotient, remainder) with self = q*other + r, deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree()
        lead = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            q[i - d] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= c * b
        return QPoly(q), QPoly(rem)

    def divexact(self, other):
        """Exact quotient, or None when the division leaves a remainder."""
        q, r = self.divide(other)
        return q if r.is_zero() else None

    def render(self, var="ell"):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = var if k == 1 else "%s^%d" % (var, k)
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append("-" + mono)
                else:
                    parts.append("%s*%s" % (c, mono))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "QPoly(%s)" % (self.render(),)


def poly_gcd(a, b):
    """Monic gcd of two polynomials (1 when coprime, 0 only if both are 0)."""
    while not b.is_zero():
        _, r = a.divide(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a * (1 / a.leading())


def fraction_sqrt(q):
    """Exact square root of a non-negative Fraction, or None when irrational."""
    q = Fraction(q)
    if q < 0:
        return None
    pn, pd = isqrt(q.numerator), isqrt(q.denominator)
    if pn * pn != q.numerator or pd * pd != q.denominator:
        return None
    return Fraction(pn, pd)

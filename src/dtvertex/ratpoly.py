"""Dense exact univariate polynomials over Q.

These are the coefficient containers for everything that depends on the
line-bundle exponent parameter (rendered as ``ell``) and for truncated
power series.  All arithmetic is exact: a QPoly stores int numerators
num (a tuple, no zero on top) over one denominator den > 0 with
gcd(den, *num) = 1, zero being ((), 1), so equal values have equal
pairs and arithmetic runs on ints; coeffs builds Fractions for the
edges that print or read them.  A QPoly is immutable, so a value may
be shared and memoized.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm


class QPoly:
    """Polynomial in one variable, coefficients listed from degree 0 up."""

    __slots__ = ("num", "den")

    def __new__(cls, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        return cls.from_ints([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def from_ints(cls, num, den=1):
        """The polynomial sum num[k] / den * x**k, for ints num and den != 0."""
        if not den:
            raise ZeroDivisionError("polynomial with denominator zero")
        n = len(num)
        while n and not num[n - 1]:
            n -= 1
        g = gcd(den, *num[:n]) if den > 0 else -gcd(den, *num[:n])
        p = object.__new__(cls)
        p.num, p.den = tuple([c // g for c in num[:n]]), den // g
        return p

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def zero(cls):
        return cls.from_ints(())

    @classmethod
    def one(cls):
        return cls.from_ints((1,))

    @property
    def coeffs(self):
        """The coefficients as Fractions, from degree 0 up, built on each read."""
        return tuple([Fraction(c, self.den) for c in self.num])

    def degree(self):
        return len(self.num) - 1

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return len(self.num) <= 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %r" % (self,))
        return self.coefficient(0)

    def leading(self):
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def coefficient(self, k):
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else Fraction(0)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            den = lcm(den, other.den)
            sa, sb = den // self.den, den // other.den
            a, b = [c * sa for c in a], [c * sb for c in b]
        return QPoly.from_ints([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self):
        return QPoly.from_ints([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            m = other.numerator
            return QPoly.from_ints([c * m for c in self.num], self.den * other.denominator)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return QPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPoly.from_ints(out, self.den * other.den)

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
        if not self.num:
            return self
        return QPoly.from_ints((0,) * k + self.num, self.den)

    def __call__(self, x):
        """The value at x = p / q: Horner's rule in ints, then one division."""
        p, q = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc * q, self.den * scale)

    def _pseudo_divide(self, other):
        """(q, r, s) in ints with s * self.num = q * other.num + r, where
        deg r < deg other and s = L**k, L the lead of other.num and k the
        degree gap plus one (s = 1 when k <= 0): each step of the long
        division is then exact in ints."""
        b = other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        d, lead = len(b) - 1, b[-1]
        k = len(self.num) - d
        if k <= 0:
            return [], list(self.num), 1
        scale = lead**k
        rem = [c * scale for c in self.num] if scale != 1 else list(self.num)
        q = [0] * k
        for i in range(len(rem) - 1, d - 1, -1):
            c = q[i - d] = rem[i] // lead
            if c:
                for j, y in enumerate(b):
                    rem[i - d + j] -= c * y
        return q, rem[:d], scale

    def divide(self, other):
        """Return (quotient, remainder) with self = q*other + r, deg r < deg other."""
        q, r, scale = self._pseudo_divide(other)
        den = self.den * scale
        return QPoly.from_ints([c * other.den for c in q], den), QPoly.from_ints(r, den)

    def divexact(self, other):
        """Exact quotient, or None when the division leaves a remainder."""
        q, r, scale = self._pseudo_divide(other)
        if any(r):
            return None
        return QPoly.from_ints([c * other.den for c in q], self.den * scale)

    def render(self, var="ell"):
        if not self.num:
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

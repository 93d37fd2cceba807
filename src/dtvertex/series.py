"""Truncated power series over Q[ell] and the generating-series checks.

Coefficients are exact polynomials in one auxiliary variable (the
line-bundle exponent ell, or the corner-height marker t in the
combinatorial identity); plain rational series are the degree-0 case.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import product as iproduct

from .errors import DegenerateSamplePoint, DTVertexError
from .kclass import cy_fixed_part, half_vertex_orbits
from .partitions import canonical_representatives, count_partitions
from .ratpoly import QPoly


def _as_qpoly(c):
    return c if isinstance(c, QPoly) else QPoly.const(c)


class TruncatedSeries:
    """Power series in q truncated at a fixed order, coefficients in Q[ell]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        cs = [_as_qpoly(c) for c in coeffs][: order + 1]
        cs += [QPoly.zero()] * (order + 1 - len(cs))
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, order):
        return cls(order, (QPoly.one(),))

    @classmethod
    def from_fractions(cls, values):
        return cls(len(values) - 1, [QPoly.const(v) for v in values])

    def coefficient(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return TruncatedSeries(self.order, [c * other for c in self.coeffs])
        n = min(self.order, other.order)
        out = [QPoly.zero()] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(n, out)

    __rmul__ = __mul__

    def exp(self):
        """exp of a series with zero constant term (standard recurrence)."""
        if not self.coeffs[0].is_zero():
            raise ValueError("exp needs a zero constant term")
        out = [QPoly.one()] + [QPoly.zero()] * self.order
        for n in range(1, self.order + 1):
            acc = QPoly.zero()
            for k in range(1, n + 1):
                sk = self.coeffs[k]
                if not sk.is_zero():
                    acc = acc + (sk * k) * out[n - k]
            out[n] = acc * Fraction(1, n)
        return TruncatedSeries(self.order, out)

    def log(self):
        """log of a series with constant term one."""
        if self.coeffs[0] != QPoly.one():
            raise ValueError("log needs constant term 1")
        out = [QPoly.zero()] * (self.order + 1)
        for n in range(1, self.order + 1):
            acc = self.coeffs[n] * n
            for k in range(1, n):
                lk = out[k]
                if not lk.is_zero():
                    acc = acc - (lk * k) * self.coeffs[n - k]
            out[n] = acc * Fraction(1, n)
        return TruncatedSeries(self.order, out)

    def alternate(self):
        """Substitute q -> -q."""
        return TruncatedSeries(
            self.order,
            [c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)],
        )

    def scale_by_ell(self):
        """Multiply every coefficient by the auxiliary variable."""
        return TruncatedSeries(self.order, [c.shift(1) for c in self.coeffs])

    def eval_ell(self, x):
        """Substitute a rational for the auxiliary variable."""
        return TruncatedSeries(self.order, [QPoly.const(c(Fraction(x))) for c in self.coeffs])

    def constants(self):
        """Coefficients as plain rationals (requires degree 0 in ell)."""
        return [c.constant_value() for c in self.coeffs]

    def serialize(self):
        return {
            "order": self.order,
            "coefficients": [[str(x) for x in c.coeffs] for c in self.coeffs],
        }

    def __repr__(self):
        return "TruncatedSeries(order=%d)" % (self.order,)


def m_series(n, order):
    """Generating series of n-partitions by size, truncated.

    n = 0 is the geometric series; for n >= 1 the coefficients are
    partitions.count_partitions, orbit sizes summed over the canonical
    representatives.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return TruncatedSeries.from_fractions([Fraction(1)] * (order + 1))
    return TruncatedSeries.from_fractions(
        [Fraction(c) for c in count_partitions(n, order)]
    )


def series_pow_ell(m, order):
    """m**ell as a series over Q[ell]: exp(ell * log m)."""
    if m.order < order:
        raise ValueError("series order %d below requested %d" % (m.order, order))
    return m.log().scale_by_ell().exp()


def target_odd(d, order):
    """Predicted series in odd dimension: M_{d-1} at -q."""
    return m_series(d - 1, order).alternate()


def target_4k(d, order):
    """Predicted series in dimension 0 mod 4: M_{d-2}(-q)**ell."""
    return series_pow_ell(m_series(d - 2, order).alternate(), order)


def build_z_odd(d, order):
    """Series of Euler ratios over all partitions, odd dimension.

    For odd d the Euler ratio of a (d-1)-partition of size n is the sign
    (-1)^(n + c0), with c0 the fixed part of v = vertex_half(pi, d), read
    off its orbits (half_vertex_orbits) without expanding v: after
    the Calabi-Yau reduction cy(V) = cy(v) - bar(cy(v)), so each weight
    w != 0 of cy(v), with coefficient c, meets -w with coefficient -c
    and the pair contributes (-1)^c to e(-V); the coefficients of cy(v)
    off the fixed weight sum to rank(v) - c0 = n - c0.  For d = 3 this
    is the sign (-1)^n of Maulik-Nekrasov-Okounkov-Pandharipande.  The
    coefficient of q^n sums the sign over the canonical representatives
    of size n weighted by orbit size: the Calabi-Yau torus is symmetric
    in the first d-1 axes, so the ratio is constant on an orbit.
    """
    if d % 2 == 0 or d < 3:
        raise ValueError("odd dimension >= 3 required")
    coeffs = [QPoly.one()]
    for n in range(1, order + 1):
        total = Fraction(0)
        for rep, orbit in canonical_representatives(d - 1, n):
            try:
                c0 = cy_fixed_part(half_vertex_orbits(rep, d)[0])
            except DTVertexError as exc:
                if exc.partition is None:
                    exc.partition = rep.serialize()
                raise
            total += (-1) ** ((n + c0) % 2) * orbit
        coeffs.append(QPoly.const(total))
    return TruncatedSeries(order, coeffs)


def build_z_4k(d, order, orientation, weights):
    """Series of specialized weights for the distinguished insertion.

    Coefficient of q^n sums orientation.signs[key] times the specialized
    weight weights[key] (a weight_table) over canonical representatives
    weighted by orbit size; weights are permutation-invariant, so this
    equals the sum over all partitions.
    """
    if d % 4 or d < 4:
        raise ValueError("dimension 0 mod 4 required")
    signs = orientation.signs
    coeffs = [QPoly.one()]
    for n in range(1, order + 1):
        total = QPoly.zero()
        for rep, orbit in canonical_representatives(d - 1, n):
            key = rep.serialize()
            if key not in signs:
                raise ValueError("orientation has no sign for %s" % key)
            total = total + weights[key].signed_poly(signs[key]) * orbit
        coeffs.append(total)
    return TruncatedSeries(order, coeffs)


# check_power_law tests the identity at N_POINTS random points and
# gives up after MAX_RETRIES points on which some form vanishes.
N_POINTS = 3
MAX_RETRIES = 64


def _sample_point(rng, nvars, bound=10**6):
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(nvars))


def check_power_law(terms_q1, terms_q2, p2, nvars, seed, signed=False):
    """Decide whether a two-term series can be a power of a reference series.

    terms_q1 / terms_q2 are the per-partition FormProducts making up the
    q and q^2 coefficients; p2 is the q^2 coefficient of the reference
    series at -q (whose q coefficient is -1).  The exponent is solved
    from the first coefficient (E = -Z_1) and the identity
    Z_2 = (p2 - 1/2) E + E^2 / 2 is tested by exact evaluation at
    N_POINTS random integer parameter points.  With signed=True every
    term carries a free sign and all sign patterns are tried; the
    verdict is "fits" when some pattern passes every point, otherwise
    "no E exists".  Returns (verdict, certificate).
    """
    rng = random.Random(seed)
    points = []
    values1 = []
    values2 = []
    retries = 0
    while len(points) < N_POINTS:
        lam = _sample_point(rng, nvars)
        try:
            v1 = [t.evaluate(lam) for t in terms_q1]
            v2 = [t.evaluate(lam) for t in terms_q2]
        except DegenerateSamplePoint:
            retries += 1
            if retries > MAX_RETRIES:
                raise
            continue
        points.append(lam)
        values1.append(v1)
        values2.append(v2)

    patterns = (
        list(iproduct((1, -1), repeat=len(terms_q1) + len(terms_q2)))
        if signed
        else [(1,) * (len(terms_q1) + len(terms_q2))]
    )
    half = Fraction(1, 2)
    witness = None
    for pat in patterns:
        s1 = pat[: len(terms_q1)]
        s2 = pat[len(terms_q1) :]
        ok = True
        for v1, v2 in zip(values1, values2):
            z1 = sum(s * v for s, v in zip(s1, v1))
            z2 = sum(s * v for s, v in zip(s2, v2))
            e = -z1
            if z2 != (p2 - half) * e + e * e * half:
                ok = False
                break
        if ok:
            witness = pat
            break

    # the values can exceed the int -> str digit limit; print them exactly
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        certificate = {
            "seed": seed,
            "points": [[str(x) for x in lam] for lam in points],
            "q1_values": [[str(v) for v in vs] for vs in values1],
            "q2_values": [[str(v) for v in vs] for vs in values2],
            "reference_q2_count": str(p2),
            "patterns_tested": len(patterns),
            "verdict": "fits" if witness else "no E exists",
        }
        if witness:
            certificate["witness_signs"] = list(witness)
            certificate["exponent_values"] = [
                str(-sum(s * v for s, v in zip(witness[: len(terms_q1)], v1)))
                for v1 in values1
            ]
    finally:
        sys.set_int_max_str_digits(limit)
    return certificate["verdict"], certificate

"""Equivariant Euler classes as exact products of linear forms.

A torus weight becomes a linear form in the equivariant parameters.  On
the Calabi-Yau torus the last parameter is eliminated immediately
(lam_d = -(lam_1 + ... + lam_{d-1})), so forms live in d-1 integer
coordinates plus one coordinate for the line-bundle exponent ell, which
only ever enters through multiples of the all-ones direction.  Euler
classes, their square roots, and the tautological insertion are all
FormProducts: an exact Fraction scalar times a multiset of primitive
forms with integer exponents.  Cancellation, square-root extraction and
the specialization to the locus lam_1 + ... + lam_{d-1} = 0 are
multiset operations; no limits are ever taken.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd

from .errors import (
    ArityMismatch,
    DegenerateSamplePoint,
    NotAPerfectSquare,
    NotConstant,
    ShapeMismatch,
    ZeroWeightDenominator,
)
from .kclass import (
    KEY_EULER_VANISHES,
    KEY_OK,
    KEY_VIOLATED,
    check_key_conjecture,
    cy_fixed_part,
    cy_reduce,
    vertex,
)
from .ratpoly import QPoly, fraction_sqrt


class LinearForm:
    """Primitive linear form: coeffs . lam + ell_part * ell * (sum of lams).

    Stored only in canonical shape: integer gcd 1 and first non-zero
    entry of (coeffs..., ell_part) positive.  Use canonical_form() to
    build one from raw data.
    """

    __slots__ = ("coeffs", "ell_part")

    def __init__(self, coeffs, ell_part):
        self.coeffs = tuple(coeffs)
        self.ell_part = int(ell_part)

    def key(self):
        return self.coeffs + (self.ell_part,)

    def is_critical(self):
        """Proportional to the all-ones direction (vanishes on the locus)."""
        return all(c == self.coeffs[0] for c in self.coeffs) if self.coeffs else True

    def evaluate(self, lams, ell=None):
        val = sum(c * x for c, x in zip(self.coeffs, lams))
        if self.ell_part:
            if ell is None:
                raise ValueError("form depends on ell; no value given")
            val += self.ell_part * ell * sum(lams)
        return val

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.coeffs == other.coeffs
            and self.ell_part == other.ell_part
        )

    def __hash__(self):
        return hash((self.coeffs, self.ell_part))

    def __repr__(self):
        return "LinearForm(%r, ell=%d)" % (self.coeffs, self.ell_part)


def canonical_form(coeffs, ell_part=0):
    """Normalize raw integer data to (form, multiplier), or None if zero.

    multiplier is the integer g with raw = g * canonical; its sign fixes
    the convention that the first non-zero entry of the canonical data
    is positive.
    """
    data = tuple(coeffs) + (ell_part,)
    g = gcd(*data)
    if g == 0:
        return None
    first = next(c for c in data if c)
    if first < 0:
        g = -g
    prim = tuple(c // g for c in data)
    return LinearForm(prim[:-1], prim[-1]), g


class FormProduct:
    """scalar * product of canonical forms raised to integer exponents."""

    __slots__ = ("scalar", "factors", "is_zero")

    def __init__(self, scalar=1, factors=None, is_zero=False):
        if is_zero:
            self.scalar = Fraction(0)
            self.factors = {}
            self.is_zero = True
            return
        self.scalar = Fraction(scalar)
        self.factors = dict(factors or {})
        self.is_zero = False

    @classmethod
    def constant(cls, c):
        return cls(scalar=c)

    @classmethod
    def zero(cls):
        return cls(is_zero=True)

    def times_raw_form(self, coeffs, ell_part, exponent):
        """Multiply in a raw form (canonicalized here) with an exponent.

        A zero form with positive exponent collapses the product to the
        zero class; with negative exponent it raises, because the Euler
        ratio it encodes is undefined.
        """
        if self.is_zero:
            return self
        norm = canonical_form(coeffs, ell_part)
        if norm is None:
            if exponent > 0:
                return FormProduct.zero()
            raise ZeroWeightDenominator("zero weight with exponent %d" % exponent)
        form, g = norm
        factors = dict(self.factors)
        e = factors.get(form, 0) + exponent
        if e:
            factors[form] = e
        else:
            factors.pop(form, None)
        return FormProduct(self.scalar * Fraction(g) ** exponent, factors)

    def __mul__(self, other):
        if not isinstance(other, FormProduct):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return FormProduct.zero()
        factors = dict(self.factors)
        for form, e in other.factors.items():
            s = factors.get(form, 0) + e
            if s:
                factors[form] = s
            else:
                del factors[form]
        return FormProduct(self.scalar * other.scalar, factors)

    def __pow__(self, n):
        if self.is_zero:
            if n <= 0:
                raise ZeroDivisionError("power of the zero product")
            return self
        return FormProduct(
            self.scalar**n, {f: e * n for f, e in self.factors.items()}
        )

    def scaled(self, c):
        if self.is_zero:
            return self
        return FormProduct(self.scalar * c, self.factors)

    def total_degree(self):
        """Net number of linear forms, counted with exponents."""
        return sum(self.factors.values())

    def is_scalar(self):
        return not self.factors and not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, FormProduct):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero == other.is_zero
        return self.scalar == other.scalar and self.factors == other.factors

    def __hash__(self):
        return hash((self.scalar, frozenset(self.factors.items()), self.is_zero))

    def evaluate(self, lams, ell=None):
        """Exact value at a parameter point; zero factors raise."""
        if self.is_zero:
            return Fraction(0)
        val = self.scalar
        for form, e in self.factors.items():
            v = form.evaluate(lams, ell)
            if not v:
                if e > 0:
                    return Fraction(0)
                raise DegenerateSamplePoint("form %r vanishes at sample" % (form,))
            val *= Fraction(v) ** e
        return val

    def serialize(self):
        rows = sorted(
            ([list(f.coeffs), f.ell_part, e] for f, e in self.factors.items()),
            key=lambda r: (r[0], r[1]),
        )
        return {
            "is_zero": self.is_zero,
            "scalar": {"num": [str(self.scalar)] if self.scalar else [], "den": ["1"]},
            "factors": rows,
        }

    @classmethod
    def from_serialized(cls, obj):
        if obj["is_zero"]:
            return cls.zero()
        num, den = obj["scalar"]["num"], obj["scalar"]["den"]
        if len(num) > 1 or len(den) != 1:
            raise ValueError("scalar is not a constant: %r" % (obj["scalar"],))
        scalar = Fraction(num[0]) / Fraction(den[0]) if num else 0
        factors = {
            LinearForm(tuple(coeffs), ell): e for coeffs, ell, e in obj["factors"]
        }
        return cls(scalar, factors)

    def __repr__(self):
        if self.is_zero:
            return "FormProduct(0)"
        return "FormProduct(%s, %d forms)" % (self.scalar, len(self.factors))


def euler_class(a, use_cy=True):
    """Euler class of a K-theory class as a FormProduct.

    Each monomial t^w with coefficient c becomes the form <w, lam> with
    exponent c.  With use_cy the class is first reduced modulo
    t_1..t_d = 1 and forms live in the d-1 surviving parameters;
    otherwise they keep all d coordinates (full torus).  The zero weight
    makes the class zero when its coefficient is positive and raises
    ZeroWeightDenominator when it is negative.
    """
    if use_cy:
        a = cy_reduce(a)
    exps = {}
    num = den = 1
    for w, c in a.terms.items():
        norm = canonical_form(w[:-1] if use_cy else w, 0)
        if norm is None:
            if c > 0:
                return FormProduct.zero()
            raise ZeroWeightDenominator("zero weight with exponent %d" % c)
        form, g = norm
        exps[form] = exps.get(form, 0) + c
        if c > 0:
            num *= g**c
        else:
            den *= g ** (-c)
    return FormProduct(Fraction(num, den), {f: e for f, e in exps.items() if e})


def sqrt_form_product(p, n):
    """Square root of (-1)^n * p, with positive scalar.

    Every form direction must appear with an even net exponent and the
    sign-adjusted scalar must be the square of a rational; otherwise the
    duality structure of the input is broken and NotAPerfectSquare is
    raised.  Squaring the result returns (-1)^n * p exactly.
    """
    if p.is_zero:
        return FormProduct.zero()
    half = {}
    for form, e in p.factors.items():
        if e % 2:
            raise NotAPerfectSquare("odd exponent %d on %r" % (e, form))
        half[form] = e // 2
    s = p.scalar * (-1) ** n
    root = fraction_sqrt(s)
    if root is None:
        raise NotAPerfectSquare("scalar %s is not a rational square" % (s,))
    return FormProduct(root, half)


def taut_factor(pi, d, u=None, ell_units=0):
    """Euler class of the sections of the box stack twisted by a line bundle.

    The bundle has character t_1^{u_1} .. t_d^{u_d} times t_d^(-ell *
    ell_units); each box contributes one form, reduced to the Calabi-Yau
    parameters.  With ell_units = 1 and u = 0 this is the distinguished
    insertion whose ell-dependence drives the specialized weights.  A box
    of weight zero collapses the product to the zero class.
    """
    if pi.arity != d - 1:
        raise ArityMismatch("expected a partition of arity %d" % (d - 1,))
    u = tuple(u) if u is not None else (0,) * d
    if len(u) != d:
        raise ValueError("twist vector must have length %d" % d)
    out = FormProduct.constant(1)
    for cell in pi.cells():
        w = tuple(a + b for a, b in zip(u, cell))
        out = out.times_raw_form(
            tuple(w[j] - w[-1] for j in range(d - 1)), ell_units, 1
        )
        if out.is_zero:
            return out
    return out


class SpecializedValue:
    """Value of a FormProduct on the locus where the all-ones form vanishes.

    Either an exact polynomial in ell, or a diagnostic:
    ``not_constant`` when a surviving form direction fails to cancel,
    ``pole`` when a direction vanishing on the locus has negative net
    exponent.  from_zero marks a zero value inherited from a zero class.
    """

    __slots__ = ("value", "diagnostic", "direction", "from_zero")

    def __init__(self, value=None, diagnostic=None, direction=None, from_zero=False):
        self.value = value
        self.diagnostic = diagnostic
        self.direction = direction
        self.from_zero = from_zero

    def is_value(self):
        return self.value is not None

    def __eq__(self, other):
        return (
            isinstance(other, SpecializedValue)
            and self.value == other.value
            and self.diagnostic == other.diagnostic
            and self.direction == other.direction
        )

    def serialize(self):
        if self.is_value():
            return {
                "value": [str(c) for c in self.value.coeffs],
                "from_zero": self.from_zero,
            }
        return {"diagnostic": self.diagnostic, "direction": self.direction}

    @classmethod
    def from_serialized(cls, obj):
        if "value" in obj:
            return cls(
                value=QPoly([Fraction(c) for c in obj["value"]]),
                from_zero=obj.get("from_zero", False),
            )
        return cls(diagnostic=obj["diagnostic"], direction=obj["direction"])

    def __repr__(self):
        if self.is_value():
            return "SpecializedValue(%s)" % (self.value.render(),)
        return "SpecializedValue(%s at %r)" % (self.diagnostic, self.direction)


def specialize(p):
    """Restrict a FormProduct to the locus lam_1 + ... + lam_{d-1} = 0.

    Critical forms (proportional to all-ones) carry the transverse
    coordinate: each one restricts to its ell-scalar (c + ell_part*ell)
    per unit, and their net exponent must balance to zero -- positive
    leaves an identically zero value, negative is a pole.  The remaining
    forms restrict to forms in d-2 parameters, are re-canonicalized
    (scalars flow into the value) and must cancel direction by
    direction, otherwise the value is not constant on the locus.  All
    cancellation is symbolic; nothing is sampled here.
    """
    if p.is_zero:
        return SpecializedValue(value=QPoly.zero(), from_zero=True)
    sigma_net = 0
    num = QPoly.const(p.scalar)
    den = QPoly.one()
    residual = {}
    res_scalar = Fraction(1)
    for form, e in sorted(p.factors.items(), key=lambda kv: kv[0].key()):
        if form.is_critical():
            c = form.coeffs[0] if form.coeffs else 0
            sigma_net += e
            unit = QPoly((Fraction(c), Fraction(form.ell_part)))
            if e > 0:
                num = num * unit**e
            else:
                den = den * unit ** (-e)
            continue
        a = form.coeffs
        restricted = tuple(a[j] - a[-1] for j in range(len(a) - 1))
        canon, g = canonical_form(restricted, 0)
        res_scalar *= Fraction(g) ** e
        s = residual.get(canon, 0) + e
        if s:
            residual[canon] = s
        else:
            del residual[canon]
    if sigma_net < 0:
        return SpecializedValue(diagnostic="pole", direction=[1] * len(next(iter(p.factors)).coeffs))
    if sigma_net > 0:
        return SpecializedValue(value=QPoly.zero())
    if residual:
        bad = min(residual, key=lambda f: f.key())
        return SpecializedValue(diagnostic="not_constant", direction=list(bad.coeffs))
    value = (num * res_scalar).divexact(den)
    if value is None:
        return SpecializedValue(diagnostic="pole", direction=None)
    return SpecializedValue(value=value)


def omega_from_specialized(v, pi):
    """Extract the unsigned weight and its sign from a specialized value.

    The value must equal sign * (-1)^|pi| * omega * prod_{i=1}^{h}
    (ell - (i-1)) with h the corner height; returns (omega, sign) with
    omega > 0.  A zero value is only legitimate when it came from a zero
    Euler class; anything else is a ShapeMismatch.
    """
    if not v.is_value():
        raise ShapeMismatch(
            "diagnostic %s instead of a polynomial" % (v.diagnostic,),
            partition=pi.serialize(),
        )
    n = pi.size
    h = pi.corner_height()
    if v.value.is_zero():
        if v.from_zero:
            return Fraction(0), 1
        raise ShapeMismatch("unexpected zero weight", partition=pi.serialize())
    divisor = QPoly.one()
    for i in range(1, h + 1):
        divisor = divisor * QPoly((Fraction(-(i - 1)), Fraction(1)))
    q = v.value.divexact(divisor)
    if q is None or not q.is_constant():
        raise ShapeMismatch(
            "weight %s does not factor through the corner column"
            % (v.value.render(),),
            partition=pi.serialize(),
        )
    c = q.constant_value()
    sign = 1 if c > 0 else -1
    if n % 2:
        sign = -sign
    return abs(c), sign


def euler_ratio_odd(pi, d):
    """Euler class of minus the vertex for odd d: a pure rational number.

    All form directions must cancel after the Calabi-Yau reduction; a
    survivor is reported as NotConstant.
    """
    if d % 2 == 0:
        raise ValueError("odd dimension required")
    verdict = check_key_conjecture(pi, d)
    if verdict == KEY_VIOLATED:
        raise ZeroWeightDenominator(
            "fixed part of the vertex is positive", partition=pi.serialize()
        )
    p = euler_class(-vertex(pi, d), use_cy=True)
    if p.is_zero:
        return Fraction(0)
    if not p.is_scalar():
        raise NotConstant(
            "forms survive in the Euler ratio", partition=pi.serialize()
        )
    return p.scalar


def evaluate_on_locus(p, frees, ell):
    """Independent evaluation of a FormProduct on the specialization locus.

    Parametrizes lam_j = mu_j for j < d-1 and lam_{d-1} = s - sum(mu),
    so each form becomes A + B*s with exact A, B; the product's limit at
    s = 0 is read off the net order in s.  This path shares nothing with
    specialize(): it is the cross-check oracle.  Points where a
    non-critical form vanishes are rejected.
    """
    if p.is_zero:
        return Fraction(0)
    frees = tuple(Fraction(x) for x in frees)
    total = sum(frees)
    val = p.scalar
    order = 0
    for form, e in p.factors.items():
        a = form.coeffs
        if len(a) != len(frees) + 1:
            raise ValueError(
                "form has %d parameters, expected %d free coordinates"
                % (len(a), len(a) - 1)
            )
        A = sum(c * x for c, x in zip(a, frees)) + a[-1] * (-total)
        B = Fraction(a[-1] + form.ell_part * ell)
        if A == 0:
            if not form.is_critical():
                raise DegenerateSamplePoint("sample lies on %r" % (form,))
            if B == 0:
                if e > 0:
                    return Fraction(0)
                raise ZeroDivisionError("identically zero form in denominator")
            order += e
            val *= B**e
        else:
            val *= A**e
    if order > 0:
        return Fraction(0)
    if order < 0:
        raise ZeroDivisionError("pole on the specialization locus")
    return val


class PartitionWeight:
    """Everything the pipeline extracts from one partition in dimension d."""

    __slots__ = (
        "partition",
        "d",
        "verdict",
        "fingerprint",
        "sqrt",
        "taut",
        "product",
        "value",
        "omega",
        "sign",
    )

    def __init__(self, partition, d, verdict, fingerprint, sqrt, taut, product, value, omega, sign):
        self.partition = partition
        self.d = d
        self.verdict = verdict
        self.fingerprint = fingerprint
        self.sqrt = sqrt
        self.taut = taut
        self.product = product
        self.value = value
        self.omega = omega
        self.sign = sign

    def signed_poly(self, orientation_sign):
        """Contribution to the series for a given orientation sign."""
        return self.value.value * orientation_sign


def vertex_fingerprint(v):
    """Stable hash of the serialized vertex class."""
    payload = json.dumps(v.serialize(), separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


_WEIGHT_MEMO = {}


def clear_weight_memo():
    _WEIGHT_MEMO.clear()


def compute_weight(pi, d, memo=True):
    """Full symbolic weight pipeline for one partition, d = 0 mod 4.

    vertex -> Euler class of its negative -> square root (positive
    scalar) -> distinguished tautological factor -> specialization ->
    weight extraction.  Pipeline failures raise with the offending
    partition attached.
    """
    if d % 4:
        raise ValueError("dimension must be divisible by 4")
    key = (d, pi.key())
    if memo and key in _WEIGHT_MEMO:
        return _WEIGHT_MEMO[key]
    v = vertex(pi, d)
    fingerprint = vertex_fingerprint(v)
    fixed = cy_fixed_part(v)
    verdict = KEY_OK if fixed == 0 else (KEY_VIOLATED if fixed > 0 else KEY_EULER_VANISHES)
    if verdict == KEY_VIOLATED:
        raise ZeroWeightDenominator(
            "fixed part of the vertex is positive", partition=pi.serialize()
        )
    try:
        p = euler_class(-v, use_cy=True)
        sqrt = sqrt_form_product(p, pi.size)
        taut = taut_factor(pi, d, ell_units=1)
        product = taut * sqrt
        value = specialize(product)
        omega, sign = omega_from_specialized(value, pi)
    except (NotAPerfectSquare, ShapeMismatch, ZeroWeightDenominator) as exc:
        if exc.partition is None:
            exc.partition = pi.serialize()
        raise
    result = PartitionWeight(
        pi, d, verdict, fingerprint, sqrt, taut, product, value, omega, sign
    )
    if memo:
        _WEIGHT_MEMO[key] = result
    return result


def full_torus_ratio(pi, d):
    """Euler class of minus the vertex over the full torus (no reduction)."""
    return euler_class(-vertex(pi, d), use_cy=False)


def cy_bundle_term(pi, d, u):
    """Tautological factor for an integer twist times the vertex square root.

    The summand of the series for a general equivariant line bundle with
    character t^u, on the Calabi-Yau torus, up to the orientation sign.
    """
    p = euler_class(-vertex(pi, d), use_cy=True)
    sqrt = sqrt_form_product(p, pi.size)
    return taut_factor(pi, d, u=u) * sqrt

"""Equivariant Euler classes as exact products of linear forms.

A torus weight becomes a linear form in the equivariant parameters.  On
the Calabi-Yau torus the last parameter is eliminated immediately
(lam_d = -(lam_1 + ... + lam_{d-1})), so a form is the integer tuple
(c_1, ..., c_{d-1}, ell_part): the form c . lam + ell_part * ell *
(lam_1 + ... + lam_{d-1}), where ell, the line-bundle exponent, only
ever enters through multiples of the all-ones direction.  Forms are
stored primitive (gcd 1, first non-zero entry positive), so tuple order
is the order of forms.  Euler classes, their square roots, and the
tautological insertion are all FormProducts: an exact Fraction scalar
times a multiset of forms with integer exponents, and the zero class
is the zero scalar with no forms.  The collector _collect builds the
tautological insertion and the full-torus Euler class from raw forms:
it canonicalizes each form, adds up the exponents and folds the
multipliers into the scalar.  The Calabi-Yau Euler class folds the
packed codes of the reduced class onto primitive forms instead, and
specialize restricts and canonicalizes in one pass.  Cancellation,
square-root extraction and the specialization to the locus
lam_1 + ... + lam_{d-1} = 0 are multiset operations; no limits are ever
taken.  specialize returns a polynomial in ell and raises ShapeMismatch
on a pole or on a form direction that survives on the locus.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import gcd

from .errors import (
    ArityMismatch,
    DegenerateSamplePoint,
    NotAPerfectSquare,
    ShapeMismatch,
    ZeroWeightDenominator,
)
from .kclass import (
    KEY_EULER_VANISHES,
    KEY_OK,
    KEY_VIOLATED,
    _decoder,
    _origin,
    cy_reduce,
    key_verdict,
    vertex,
    vertex_half,
)
from .partitions import canonical_representatives
from .ratpoly import QPoly, fraction_sqrt


def canonical_form(coeffs, ell_part=0):
    """Normalize raw integer data to (form, multiplier), or None if zero.

    The form is the tuple (c_1, ..., c_{d-1}, ell_part) divided by the
    integer g with raw = g * form; the sign of g makes the first
    non-zero entry of the form positive.
    """
    data = (*coeffs, ell_part)
    g = gcd(*data)
    if g == 0:
        return None
    first = next(filter(None, data))
    if first < 0:
        g = -g
    if g == 1:
        return data, 1
    return tuple(c // g for c in data), g


class FormProduct:
    """scalar * product of canonical forms raised to integer exponents.

    The zero class is the zero scalar with no forms: a zero scalar drops
    the factors.
    """

    __slots__ = ("scalar", "factors")

    def __init__(self, scalar=1, factors=None):
        self.scalar = Fraction(scalar)
        self.factors = dict(factors or {}) if self.scalar else {}

    def is_zero(self):
        return not self.scalar

    def __mul__(self, other):
        if not isinstance(other, FormProduct):
            return NotImplemented
        factors = dict(self.factors)
        for form, e in other.factors.items():
            s = factors.get(form, 0) + e
            if s:
                factors[form] = s
            else:
                del factors[form]
        return FormProduct(self.scalar * other.scalar, factors)

    def scaled(self, c):
        return FormProduct(self.scalar * c, self.factors)

    def total_degree(self):
        """Net number of linear forms, counted with exponents."""
        return sum(self.factors.values())

    def is_scalar(self):
        return not self.factors

    def __eq__(self, other):
        if not isinstance(other, FormProduct):
            return NotImplemented
        return self.scalar == other.scalar and self.factors == other.factors

    def __hash__(self):
        return hash((self.scalar, frozenset(self.factors.items())))

    def evaluate(self, lams, ell=None):
        """Exact value at a parameter point; zero factors raise."""
        val = self.scalar
        for form, e in self.factors.items():
            v = sum(c * x for c, x in zip(form[:-1], lams))
            if form[-1]:
                if ell is None:
                    raise ValueError("form depends on ell; no value given")
                v += form[-1] * ell * sum(lams)
            if not v:
                if e > 0:
                    return Fraction(0)
                raise DegenerateSamplePoint("form %r vanishes at sample" % (form,))
            val *= Fraction(v) ** e
        return val

    def __repr__(self):
        return "FormProduct(%s, %d forms)" % (self.scalar, len(self.factors))


def _collect(raw):
    """Product of raw forms (coeffs, ell_part, exponent) as a FormProduct.

    Each form is canonicalized, the exponents of equal forms add up and
    the multiplier g of a form with exponent e enters the scalar as
    g**e.  A zero form gives the zero class when its exponent is
    positive and raises ZeroWeightDenominator when it is negative.
    """
    exps = {}
    num = den = 1
    for coeffs, ell_part, e in raw:
        norm = canonical_form(coeffs, ell_part)
        if norm is None:
            if e > 0:
                return FormProduct(0)
            raise ZeroWeightDenominator("zero weight with exponent %d" % e)
        form, g = norm
        exps[form] = exps.get(form, 0) + e
        if e > 0:
            num *= g**e
        else:
            den *= g ** (-e)
    return FormProduct(Fraction(num, den), {f: e for f, e in exps.items() if e})


def euler_class(a, use_cy=True):
    """Euler class of a K-theory class as a FormProduct.

    Each monomial t^w with coefficient c becomes the form <w, lam> with
    exponent c.  With use_cy the class is first reduced modulo
    t_1..t_d = 1 and forms live in the d-1 surviving parameters;
    otherwise they keep all d coordinates (full torus).  The zero weight
    makes the class zero when its coefficient is positive and raises
    ZeroWeightDenominator when it is negative.

    The reduced class is read in its packed codes.  Code order is
    lexicographic, so a code below the origin is a weight whose first
    non-zero entry is negative: it is folded onto its mirror, and its
    coefficient's parity enters the sign of the scalar.  Each folded
    code is decoded once; its last digit, w_d = 0 after the reduction,
    is the ell_part 0 of the form.
    """
    if not use_cy:
        return _collect((w, 0, c) for w, c in a.items())
    a = cy_reduce(a)
    origin = _origin(a.dim)
    mirror = 2 * origin
    folded = {}
    get = folded.get
    odd = 0
    for code, c in a.terms.items():
        if code < origin:
            code = mirror - code
            odd ^= c & 1
        elif code == origin:
            if c > 0:
                return FormProduct(0)
            raise ZeroWeightDenominator("zero weight with exponent %d" % c)
        folded[code] = get(code, 0) + c
    decode = _decoder(a.dim, a.dim)
    exps = {}
    num = den = 1
    for code, e in folded.items():
        if not e:
            continue
        form = decode(code)
        g = gcd(*form)
        if g != 1:
            form = tuple(x // g for x in form)
            if e > 0:
                num *= g**e
            else:
                den *= g ** (-e)
        exps[form] = exps.get(form, 0) + e
    scalar = Fraction(-num if odd else num, den)
    return FormProduct(scalar, {f: e for f, e in exps.items() if e})


def sqrt_form_product(p, n):
    """Square root of (-1)^n * p, with positive scalar.

    Every form direction must appear with an even net exponent and the
    sign-adjusted scalar must be the square of a rational; otherwise the
    duality structure of the input is broken and NotAPerfectSquare is
    raised.  Squaring the result returns (-1)^n * p exactly.  The weight
    pipeline takes its roots from the half vertex (_half_vertex_root);
    this general route on e(-V) is the oracle that checks them.
    """
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


def _half_vertex_root(v, n):
    """Root of (-1)^n * e(-V) for even d, from the half vertex v alone.

    For even d, cy(V) = cy(v) + cy(bar(v)), and e(-bar(v)) is e(-v) with
    every form negated, (-1)^k * e(-v) for k its total degree; so
    (-1)^n * e(-V) = (-1)^(n + k) * e(-v)^2.  The root is e(-v) with a
    positive scalar; when n + k is odd the scalar of (-1)^n * e(-V) is
    negative and NotAPerfectSquare is raised.  The zero class is its own
    root.  It equals sqrt_form_product(euler_class(-vertex(pi, d)), n).
    """
    e = euler_class(-v, use_cy=True)
    if e.is_zero():
        return e
    if (e.total_degree() + n) % 2:
        raise NotAPerfectSquare("scalar %s is not a rational square" % (-e.scalar**2,))
    return e if e.scalar > 0 else e.scaled(-1)


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
    return _collect(
        ([u[j] + cell[j] - u[-1] - cell[-1] for j in range(d - 1)], ell_units, 1)
        for cell in pi.cells()
    )


def specialize(p):
    """Restrict a FormProduct to the locus lam_1 + ... + lam_{d-1} = 0.

    Critical forms (c, ..., c, ell_part) carry the transverse coordinate:
    each one restricts to its ell-scalar c + ell_part*ell per unit, and
    their net exponent must balance to zero -- positive leaves an
    identically zero value, negative is a pole.  The remaining forms
    restrict to forms in d-2 parameters, are re-canonicalized (scalars
    flow into the value) and must cancel direction by direction,
    otherwise the value is not constant on the locus.  Returns the value
    as a QPoly in ell (zero for the zero class) and raises ShapeMismatch
    on a pole or a surviving direction.  All cancellation is symbolic;
    nothing is sampled here.  One pass over the factors sorts out the
    critical forms and restricts and canonicalizes the others.
    """
    units = {}
    exps = {}
    get = exps.get
    num = den = 1
    odd = 0
    zero = None
    for form, e in p.factors.items():
        head = form[:-1]
        last = head[-1]
        if head.count(last) == len(head):
            units[last, form[-1]] = e
            continue
        rest = tuple([c - last for c in head[:-1]])
        if zero is None:
            zero = (0,) * len(rest)
        if rest < zero:
            rest = tuple([-c for c in rest])
            odd ^= e & 1
        g = gcd(*rest)
        if g != 1:
            rest = tuple([c // g for c in rest])
            if e > 0:
                num *= g**e
            else:
                den *= g ** (-e)
        exps[rest] = get(rest, 0) + e
    sigma_net = sum(units.values())
    if sigma_net < 0:
        raise ShapeMismatch("diagnostic pole instead of a polynomial")
    if sigma_net > 0:
        return QPoly.zero()
    if any(exps.values()):
        raise ShapeMismatch("diagnostic not_constant instead of a polynomial")
    top = QPoly.const(p.scalar * Fraction(-num if odd else num, den))
    bottom = QPoly.one()
    for unit, e in units.items():
        if e > 0:
            top = top * QPoly(unit) ** e
        else:
            bottom = bottom * QPoly(unit) ** (-e)
    value = top.divexact(bottom)
    if value is None:
        raise ShapeMismatch("diagnostic pole instead of a polynomial")
    return value


def _corner_column(h):
    """ell (ell - 1) ... (ell - h + 1), the column of a corner of height h."""
    column = QPoly.one()
    for i in range(h):
        column = column * QPoly((Fraction(-i), Fraction(1)))
    return column


def omega_from_specialized(value, pi):
    """Extract the unsigned weight and its sign from a specialized value.

    The value must equal sign * (-1)^|pi| * omega * _corner_column(h)
    with h the corner height; returns (omega, sign) with omega > 0.
    Anything else, a zero value included, is a ShapeMismatch.
    """
    if value.is_zero():
        raise ShapeMismatch("unexpected zero weight", partition=pi.serialize())
    q = value.divexact(_corner_column(pi.corner_height()))
    if q is None or not q.is_constant():
        raise ShapeMismatch(
            "weight %s does not factor through the corner column"
            % (value.render(),),
            partition=pi.serialize(),
        )
    c = q.constant_value()
    sign = 1 if c > 0 else -1
    if pi.size % 2:
        sign = -sign
    return abs(c), sign


class PartitionWeight:
    """The series term of one partition in dimension d = 0 mod 4.

    compute_weight proves that the specialized weight of the partition
    is sign * (-1)^|pi| * omega * ell (ell - 1) ... (ell - h + 1), with h
    the corner height, so omega and sign fix the term; verdict and
    fingerprint describe the half vertex v = vertex_half(pi, d) that the
    weight was computed from.  An omega below 0, a sign other than +-1
    or a verdict other than KEY_OK and KEY_EULER_VANISHES (only a
    hand-edited cache line can carry one) raises ShapeMismatch naming
    the partition.
    """

    __slots__ = ("partition", "d", "verdict", "fingerprint", "omega", "sign")

    def __init__(self, partition, d, verdict, fingerprint, omega, sign):
        if omega < 0 or sign not in (1, -1) or verdict not in (KEY_OK, KEY_EULER_VANISHES):
            raise ShapeMismatch(
                "weight %s with sign %s and verdict %r" % (omega, sign, verdict),
                partition=partition.serialize(),
            )
        self.partition = partition
        self.d = d
        self.verdict = verdict
        self.fingerprint = fingerprint
        self.omega = omega
        self.sign = sign

    def signed_poly(self, orientation_sign):
        """Contribution to the series for a given orientation sign."""
        pi = self.partition
        c = orientation_sign * self.sign * (-1) ** pi.size * self.omega
        return _corner_column(pi.corner_height()) * c


def vertex_fingerprint(v):
    """sha256 of a class's packed terms, as hex.

    Hashes, in this order, b"dim:count:", every code in increasing
    order as 2 * dim big-endian bytes (a code is below 2^(16 dim)), and
    the repr of the coefficient list in that order.  The term count in
    the prefix makes the encoding injective.  The weight pipeline and
    the cache hash the half vertex vertex_half(pi, d); no term is
    decoded and no code is written in decimal.
    """
    terms = v.terms
    keys = sorted(terms)
    width = 2 * v.dim
    h = hashlib.sha256(b"%d:%d:" % (v.dim, len(keys)))
    h.update(b"".join([k.to_bytes(width, "big") for k in keys]))
    h.update(repr([terms[k] for k in keys]).encode())
    return h.hexdigest()


def compute_weight(pi, d):
    """Full symbolic weight pipeline for one partition, d = 0 mod 4.

    half vertex v -> square root of the Euler class of minus the vertex,
    read off e(-v) -> distinguished tautological factor ->
    specialization -> weight extraction.  The full vertex V is never
    built: for even d its fixed part is twice that of v, so the verdict
    and the fingerprint come from v as well.  A zero square root (a zero
    Euler class) is the weight omega = 0 with sign 1.  Pipeline failures
    raise with the offending partition attached.
    """
    if d % 4:
        raise ValueError("dimension must be divisible by 4")
    v = vertex_half(pi, d)
    fingerprint = vertex_fingerprint(v)
    verdict = key_verdict(v)
    if verdict == KEY_VIOLATED:
        raise ZeroWeightDenominator(
            "fixed part of the vertex is positive", partition=pi.serialize()
        )
    try:
        sqrt = _half_vertex_root(v, pi.size)
        if sqrt.is_zero():
            omega, sign = Fraction(0), 1
        else:
            value = specialize(taut_factor(pi, d, ell_units=1) * sqrt)
            omega, sign = omega_from_specialized(value, pi)
    except (NotAPerfectSquare, ShapeMismatch, ZeroWeightDenominator) as exc:
        if exc.partition is None:
            exc.partition = pi.serialize()
        raise
    return PartitionWeight(pi, d, verdict, fingerprint, omega, sign)


def weight_table(d, order):
    """Weights of the canonical representatives of sizes 1..order.

    Returns {serialized partition: PartitionWeight}, the table that
    build_z_4k, positive_omega_orientation and verify_uniqueness read.
    """
    return {
        rep.serialize(): compute_weight(rep, d)
        for n in range(1, order + 1)
        for rep, _ in canonical_representatives(d - 1, n)
    }


def full_torus_ratio(pi, d):
    """Euler class of minus the vertex over the full torus (no reduction)."""
    return euler_class(-vertex(pi, d), use_cy=False)


def cy_bundle_term(pi, d, u):
    """Tautological factor for an integer twist times the vertex square root.

    The summand of the series for a general equivariant line bundle with
    character t^u, on the Calabi-Yau torus, up to the orientation sign;
    the root is taken from the half vertex, so d must be even.
    """
    return taut_factor(pi, d, u=u) * _half_vertex_root(vertex_half(pi, d), pi.size)

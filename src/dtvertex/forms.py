"""Equivariant Euler classes as exact products of linear forms.

A torus weight becomes a linear form in the equivariant parameters.  On
the Calabi-Yau torus lam_d = -(lam_1 + ... + lam_{d-1}) is eliminated at
once, so a form is the integer tuple (c_1, ..., c_{d-1}, ell_part): the
form c . lam + ell_part * ell * (lam_1 + ... + lam_{d-1}), ell being the
line-bundle exponent.  Forms are stored primitive (gcd 1, first non-zero
entry positive), so tuple order is the order of forms.  Euler classes,
their square roots and the tautological insertion are FormProducts: an
exact Fraction scalar times a multiset of forms with integer exponents;
the zero class is the zero scalar with no forms.  Every product of forms
is built by _merge_primitive, which divides each form by its gcd and
merges its exponent.  This module never reads a packed exponent code:
kclass.cy_fold and kclass.locus_fold hand it integer vectors, block by
block for the unexpanded -v of the half vertex, whose fold e(-v)
defers: a weight reads only its zero test, parity and sign, off the
corners (kclass.cy_corners).  Cancellation, square roots and the
specialization to the locus lam_1 + ... + lam_{d-1} = 0 are multiset
operations; no limits are ever taken.  The specialized value is a
polynomial in ell; a pole or a form direction that survives on the
locus raises ShapeMismatch.  There each box off the diagonal has one
form, +1 in the insertion and -1 in the tail -Z of -v, folded and
divided alike, so a weight reads Q's blocks, without the tail, and the
diagonal boxes alone; specialize, which restricts forms, is its oracle.
"""

from __future__ import annotations

import functools
import hashlib
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    ArityMismatch,
    DegenerateSamplePoint,
    NotAPerfectSquare,
    ShapeMismatch,
    ZeroWeightDenominator,
    naming,
)
from .kclass import (
    KEY_EULER_VANISHES,
    KEY_OK,
    KClass,
    add_into,
    block_bytes,
    cy_corners,
    cy_fold,
    half_vertex_blocks,
    interior_items,
    locus_fold,
    vertex,
)
from .partitions import canonical_representatives
from .ratpoly import QPoly, fraction_sqrt


class FormProduct:
    """scalar * product of canonical forms raised to integer exponents.

    The zero class is the zero scalar with no forms: a zero scalar drops
    the factors.  euler_class defers its fold: the product holds the
    class, the sign of its scalar and its degree (kclass.cy_corners), so
    is_zero, sign and total_degree read no form, and the first read of
    scalar or factors runs cy_fold and the merge, once.
    """

    __slots__ = ("_scalar", "_factors", "_pending")

    def __init__(self, scalar=1, factors=None):
        self._scalar = Fraction(scalar)
        self._factors = dict(factors or {}) if self._scalar else {}
        self._pending = None

    @classmethod
    def _packed(cls, scalar, factors, pending=None):
        """Product over a Fraction scalar and a freshly built dict of
        non-zero exponents, taken as is (empty when the scalar is zero),
        or the deferred e(a) of sign scalar, pending = (a, its degree)."""
        p = object.__new__(cls)
        p._scalar = scalar
        p._factors = factors
        p._pending = pending
        return p

    @property
    def factors(self):
        """{form: exponent}; its first read, or scalar's, runs the deferred fold."""
        if self._pending:
            _, odd, interior, pairs = cy_fold(self._pending[0])
            self._pending = None
            self._factors = dict(interior_items(interior)) if interior else {}
            self._scalar = Fraction(*_merge_primitive(pairs, self._factors, odd))
        return self._factors

    @property
    def scalar(self):
        self.factors  # runs the deferred fold, if any
        return self._scalar

    def is_zero(self):
        return not self._scalar

    def sign(self):
        return (self._scalar > 0) - (self._scalar < 0)

    def __mul__(self, other):
        if not isinstance(other, FormProduct):
            return NotImplemented
        scalar = self.scalar * other.scalar
        if not scalar:
            return FormProduct(0)
        return FormProduct._packed(scalar, add_into(dict(self.factors), other.factors.items()))

    def scaled(self, c):
        return FormProduct(self.scalar * c, self.factors)

    def total_degree(self):
        """Net number of linear forms, counted with exponents, with no fold."""
        return self._pending[1] if self._pending else sum(self._factors.values())

    def __eq__(self, other):
        if not isinstance(other, FormProduct):
            return NotImplemented
        return self.scalar == other.scalar and self.factors == other.factors

    def __hash__(self):
        return hash((self.scalar, frozenset(self.factors.items())))

    def evaluate(self, lams):
        """Exact value at a parameter point; zero factors and ell parts raise.
        Each form is an integer over one denominator m, multiplied in order as is."""
        lams = [Fraction(x) for x in lams]
        m = lcm(*[x.denominator for x in lams])
        ints = [int(x * m) for x in lams]
        num, den, degree = self.scalar.numerator, self.scalar.denominator, 0
        for form, e in self.factors.items():
            if form[-1]:
                raise ValueError("form depends on ell; no value given")
            v = sum([c * x for c, x in zip(form[:-1], ints)])
            if not v:
                if e > 0:
                    return Fraction(0)
                raise DegenerateSamplePoint("form %r vanishes at sample" % (form,))
            if e > 0:
                num *= v**e
            else:
                den *= v ** (-e)
            degree += e
        return Fraction(num * m ** max(-degree, 0), den * m ** max(degree, 0))

    def __repr__(self):
        return "FormProduct(%s, %d forms)" % (self.scalar, len(self.factors))


def _merge_primitive(pairs, exps, odd=0):
    """Merge (form, exponent) pairs into exps as primitive forms.

    Each form is non-zero with its first non-zero entry positive.  A
    form that holds 1 or -1 is primitive as it is; any other is divided
    by its gcd g, which leaves g**e to the scalar, and may then merge
    into a form already in exps.  A merge that nets to zero deletes the
    form, and an exponent 0 changes nothing.  Returns the product of the
    g**e as an integer numerator, negated when odd, and denominator.
    """
    num = den = 1
    primitive = []
    for form, e in pairs:
        if 1 not in form and -1 not in form:
            g = gcd(*form)
            if g != 1:
                form = tuple([x // g for x in form])
                if e > 0:
                    num *= g**e
                else:
                    den *= g ** (-e)
        primitive.append((form, e))
    add_into(exps, primitive)
    return -num if odd else num, den


def _collect(raw):
    """Product of raw forms (coeffs, ell_part, exponent) as a FormProduct.

    Each form (*coeffs, ell_part) is negated when its first non-zero
    entry is negative, the parity of its exponent entering the sign,
    and merged by _merge_primitive.  A zero form gives the zero class
    when its exponent is positive and raises ZeroWeightDenominator
    otherwise.
    """
    pairs, odd = [], 0
    for coeffs, ell_part, e in raw:
        form = (*coeffs, ell_part)
        first = next(filter(None, form), 0)
        if not first:
            if e > 0:
                return FormProduct(0)
            raise ZeroWeightDenominator("zero weight with exponent %d" % e)
        if first < 0:
            form = tuple([-c for c in form])
            odd ^= e & 1
        pairs.append((form, e))
    exps = {}
    return FormProduct._packed(Fraction(*_merge_primitive(pairs, exps, odd)), exps)


def euler_class(a):
    """Euler class of a KClass or a FlatBlocks on the Calabi-Yau torus.

    Each monomial t^w with coefficient c becomes the form <w, lam> with
    exponent c, in the d-1 parameters left by the reduction modulo
    t_1..t_d = 1 (full_torus_ratio keeps all d).  The zero weight makes
    the class zero when its coefficient is positive and raises
    ZeroWeightDenominator when it is negative.  kclass.cy_corners reads
    these off the corners of the blocks (a KClass through its blocks);
    the first read of scalar or factors folds them onto mirrored weights
    w (cy_fold), w_d = 0 the ell_part, and merges.
    """
    if isinstance(a, KClass):
        a = a.blocks
    fixed, odd, degree = cy_corners(a)
    if fixed > 0:
        return FormProduct(0)
    if fixed < 0:
        raise ZeroWeightDenominator("zero weight with exponent %d" % fixed)
    return FormProduct._packed(-1 if odd else 1, {}, (a, degree))


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
    return FormProduct._packed(root, half)


def _half_vertex_euler(nv, n):
    """e(nv) for nv = -v, v the half vertex, once its root is known to exist.

    For even d, cy(V) = cy(v) + cy(bar(v)) and e(-bar(v)) = (-1)^k e(-v),
    k the total degree, so (-1)^n * e(-V) = (-1)^(n + k) * e(-v)^2: when
    e(-v) is not zero and n + k is odd, NotAPerfectSquare is raised.
    """
    e = euler_class(nv)
    if not e.is_zero() and (e.total_degree() + n) % 2:
        raise NotAPerfectSquare("scalar %s is not a rational square" % (-e.scalar**2,))
    return e


def _half_vertex_root(nv, n):
    """Root of (-1)^n * e(-V) for even d: e(nv), nv = -v, with a positive
    scalar, the zero class its own root (sqrt_form_product is its oracle)."""
    e = _half_vertex_euler(nv, n)
    return e if e.scalar >= 0 else e.scaled(-1)


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


def _locus_value(scalar, units, exps):
    """The value scalar * prod units^e on the locus, or a ShapeMismatch;
    the scalar is a pair (numerator, denominator) of ints.

    The net exponent of the units must balance to zero -- positive
    leaves an identically zero value, negative is a pole -- and the
    restricted forms in exps must cancel direction by direction,
    otherwise the value is not constant on the locus.  Checked in that
    order; the value is a QPoly in ell.  The units without an ell-part
    are constants, multiplied into the numerator and the denominator;
    the units (c + k*ell)^e are multiplied out as integer coefficient
    lists, the top from e > 0 and the bottom from e < 0.  The value is
    the top times the numerator over the denominator, built as one
    QPoly; unless the bottom is 1 it must divide exactly by the bottom,
    or the value has a pole.
    """
    sigma_net = sum(units.values())
    if sigma_net < 0:
        raise ShapeMismatch("diagnostic pole instead of a polynomial")
    if sigma_net > 0:
        return QPoly.zero()
    if any(exps.values()):
        raise ShapeMismatch("diagnostic not_constant instead of a polynomial")
    top = [1]
    bottom = [1]
    num, den = scalar
    for (c, k), e in units.items():
        if not k:
            if e > 0:
                num *= c**e
            else:
                den *= c ** (-e)
            continue
        poly = top if e > 0 else bottom
        for _ in range(abs(e)):
            poly.append(0)
            for i in range(len(poly) - 1, 0, -1):
                poly[i] = c * poly[i] + k * poly[i - 1]
            poly[0] *= c
    value = QPoly.from_ints([num * c for c in top], den)
    if len(bottom) > 1:
        value = value.divexact(QPoly.from_ints(bottom))
        if value is None:
            raise ShapeMismatch("diagnostic pole instead of a polynomial")
    return value


def specialize(p):
    """Restrict a FormProduct to the locus lam_1 + ... + lam_{d-1} = 0.

    A critical form (c, ..., c, ell_part) carries the transverse
    coordinate: its exponent is added to the unit (c, ell_part), the
    ell-scalar c + ell_part*ell.  Every other form restricts to the form
    (c_i - c_{d-1})_{i <= d-2} in d-2 parameters, negated when its first
    non-zero entry is negative and merged by _merge_primitive, whose
    multiplier flows into the value.  Returns the value as a QPoly in
    ell (zero for the zero class) and raises ShapeMismatch on a pole or
    a surviving direction (_locus_value).  All cancellation is symbolic;
    nothing is sampled here.  The weight pipeline reads the value from
    the packed half vertex (_specialize_half_vertex); this route on the
    product of forms is the oracle that checks it.
    """
    units, exps, pairs, odd = {}, {}, [], 0
    for form, e in p.factors.items():
        head = form[:-1]
        last = head[-1]
        if head.count(last) == len(head):
            units[last, form[-1]] = units.get((last, form[-1]), 0) + e
            continue
        rest = tuple([c - last for c in head[:-1]])
        if rest < (0,) * len(rest):
            rest = tuple([-c for c in rest])
            odd ^= e & 1
        pairs.append((rest, e))
    num, den = _merge_primitive(pairs, exps, odd)
    return _locus_value((p.scalar.numerator * num, p.scalar.denominator * den), units, exps)


def _specialize_half_vertex(pi, d, nv):
    """The specialized value of pi, read from nv = half_vertex_blocks(pi,
    d), the blocks of -v, v the half vertex.

    Equals specialize(taut_factor(pi, d, ell_units=1) * root) for
    root = _half_vertex_root(nv, |pi|), with the same errors, and is None
    where the root is the zero class, on which the one euler_class(nv)
    rules with the parity of the root; the root drops the sign of its
    scalar, which e(nv).sign() reads unfolded.  A box of Z whose base
    indices are not all equal restricts to one form in the insertion
    (exponent +1, its ell-part vanishing on the locus) and in -Z
    (exponent -1), with the same sign fold and gcd, so the two cancel:
    kclass.locus_fold reads Q's blocks alone, nv without its tail (e(nv)
    reads all of nv), a critical weight u being the unit (u, 0), and
    a critical box, base (a, ..., a) at level m, leaves the unit u + ell
    over u, u = a - 1 - m (0 nets to zero, as e(-v) is not).
    """
    e = _half_vertex_euler(nv, pi.size)
    if e.is_zero():
        return None
    crit, odd, pairs = locus_fold(nv._replace(tail={}))
    units = {(u, 0): c for u, c in crit.items() if c}
    a = 1
    while h := pi.heights.get((a,) * pi.arity):
        add_into(units, [item for u in range(a - h, a) for item in (((u, 1), 1), ((u, 0), -1))])
        a += 1
    exps = {}
    return _locus_value(_merge_primitive(pairs, exps, odd ^ (e.sign() < 0)), units, exps)


@functools.cache
def _corner_column(h):
    """ell (ell - 1) ... (ell - h + 1), the column of a corner of height h.

    Memoized: a QPoly is immutable, so every caller may share it.
    """
    column = QPoly.one()
    for i in range(h):
        column = column * QPoly.from_ints((-i, 1))
    return column


def omega_from_specialized(value, pi):
    """Extract the unsigned weight and its sign from a specialized value.

    The value must equal sign * (-1)^|pi| * omega * _corner_column(h)
    with h the corner height; returns (omega, sign) with omega > 0.
    Anything else, a zero value included, is a ShapeMismatch.
    """
    if value.is_zero():
        raise ShapeMismatch("unexpected zero weight")
    q = value.divexact(_corner_column(pi.corner_height()))
    if q is None or not q.is_constant():
        raise ShapeMismatch(
            "weight %s does not factor through the corner column" % (value.render(),)
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
    the corner height, so omega and sign fix the term; verdict describes
    the half vertex v (half_vertex_blocks) that the weight was computed
    from: KEY_OK with omega > 0 and sign +-1, or KEY_EULER_VANISHES with
    omega 0 and sign 1.  Anything else (only a hand-edited cache line can
    carry it) raises ShapeMismatch.
    """

    __slots__ = ("partition", "d", "verdict", "omega", "sign")

    def __init__(self, partition, d, verdict, omega, sign):
        ok = verdict == KEY_OK and omega > 0 and sign in (1, -1)
        if not (ok or (verdict, omega, sign) == (KEY_EULER_VANISHES, 0, 1)):
            raise ShapeMismatch("weight %s with sign %s and verdict %r" % (omega, sign, verdict))
        self.partition = partition
        self.d = d
        self.verdict = verdict
        self.omega = omega
        self.sign = sign

    def signed_poly(self, orientation_sign):
        """Contribution to the series for a given orientation sign."""
        pi = self.partition
        c = orientation_sign * self.sign * (-1) ** pi.size
        return _corner_column(pi.corner_height()) * self.omega * c


def vertex_fingerprint(nv):
    """sha256, as hex, of the blocks of -v that kclass.half_vertex_blocks
    gives: the dimension, the flat axes and the sorted codes and
    coefficients of Q and of -Z, as kclass.block_bytes writes them; its
    prefix of counts makes the bytes injective.  The fingerprint of cache
    schemas 6 and earlier; no weight reads it any more."""
    return hashlib.sha256(block_bytes(nv)).hexdigest()


def compute_weight(pi, d):
    """Full symbolic weight pipeline for one partition, d = 0 mod 4.

    One character and one box product give the blocks of -v, v the half
    vertex (half_vertex_blocks), which give e(-v), which rules on the root of
    e(-V) and gives the specialized value of the tautological factor
    times that root (_specialize_half_vertex), whose weight is
    extracted.  The fixed part of v is half that of the full
    vertex, so e(-v) gives the verdict too: a zero root is
    KEY_EULER_VANISHES with omega = 0 and sign 1, and a positive fixed
    part raises ZeroWeightDenominator.  The whole pipeline runs inside
    naming(pi), so every DTVertexError it raises names the partition.
    """
    if d % 4:
        raise ValueError("dimension must be divisible by 4")
    with naming(pi):
        value = _specialize_half_vertex(pi, d, half_vertex_blocks(pi, d))
        if value is None:
            verdict, omega, sign = KEY_EULER_VANISHES, Fraction(0), 1
        else:
            verdict = KEY_OK
            omega, sign = omega_from_specialized(value, pi)
        return PartitionWeight(pi, d, verdict, omega, sign)


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
    """Euler class of -V on the full torus: each weight of V, exponent negated."""
    with naming(pi):
        return _collect((w, 0, -c) for w, c in vertex(pi, d).items())


def cy_bundle_term(pi, d, u):
    """Tautological factor for an integer twist times the vertex square root.

    The summand of the series for a general equivariant line bundle with
    character t^u, on the Calabi-Yau torus, up to the orientation sign;
    the root comes from the blocks of -v, v the half vertex, so d is even.
    """
    with naming(pi):
        nv = half_vertex_blocks(pi, d)
        return taut_factor(pi, d, u=u) * _half_vertex_root(nv, pi.size)

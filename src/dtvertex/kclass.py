"""Sparse integer Laurent polynomials in t_1..t_d and the equivariant vertex.

A KClass is a finite map from exponent vectors in Z^d to non-zero
integer coefficients.  It carries the torus character of a box stack,
the vertex class of its ideal, and everything derived from them.  All
arithmetic is exact over Z; division by the coordinate product is
multiplication by the inverse monomial and never a polynomial division.

Each exponent vector is stored as one packed integer.  With radix 2^16
and bias 2^15 the vector w = (w_1, .., w_d) has the code

    code(w) = sum_i (w_i + 2^15) * 2^(16 (d - i))        (i = 1..d)

so w_1 sits in the top 16-bit digit and integer order is the
lexicographic order of the vectors.  A shift by t^v adds
code(v) - code(0), bar(w) is 2 code(0) - code(w), the product of two
monomials has code(a) + code(b) - code(0), and the reduction modulo
t_1..t_d = 1 reads w_d from the bottom digit and subtracts w_d * ONES,
where ONES = sum_i 2^(16 (i - 1)).

A digit holds w_i + 2^15 only for -2^15 < w_i < 2^15; beyond that it
would carry into its neighbour.  So every class carries `bound`, an
upper bound on |w_i| over all its terms, which +, *, shift and
cy_reduce update in O(1).  An operation whose bound reaches 2^15
raises ExponentOverflow before it builds a single key; nothing ever
wraps.  Tuples cross the boundary only at the edges: the constructor,
monomial, coefficient and shift encode them with the same range check,
and items, as_dict, serialize and the two folds decode them, all by one
buffer decoder.  No other module reads a code: cy_fold reduces a class
modulo t_1..t_d = 1 and folds it onto mirrored weights, locus_fold
restricts it to lam_1 + .. + lam_{d-1} = 0, and both hand over integer
vectors, from which forms builds the Euler class and its specialized
value.

The vertex multiplies Z * bar(Z) by one factor (1 - t_i^-1) per axis.
On an axis that no box leaves (a flat axis) every term has w_i = 0, so
each key of t^w / t_i is new: the factor doubles the dict with one
dict.update and no lookups, after the other axes have folded term by
term while the dict is small.  Swapping flat axes fixes the half
vertex, which half_vertex_orbits keeps as one code per orbit.
"""

from __future__ import annotations

import struct

from .errors import ArityMismatch, DimensionMismatch, ExponentOverflow
from .partitions import MultiPartition

KEY_OK = "ok"
KEY_EULER_VANISHES = "euler_vanishes"
KEY_VIOLATED = "violated"

RADIX_BITS = 16
# Added to every exponent; also the exclusive limit of |exponent|.
BIAS = 1 << (RADIX_BITS - 1)
DIGIT = (1 << RADIX_BITS) - 1


def _ones(d):
    """Code step of the all-ones vector: one unit in each of the d digits."""
    return ((1 << RADIX_BITS * d) - 1) // DIGIT


def _origin(d):
    """code((0,..,0)): the bias in every digit."""
    return BIAS * _ones(d)


def _checked(bound):
    if bound >= BIAS:
        raise ExponentOverflow(
            "exponents up to %d do not fit the radix (|w| < %d)" % (bound, BIAS)
        )
    return bound


def _encode(w, d):
    """(code, max |w_i|) of an exponent vector of length d."""
    w = tuple(w)
    if len(w) != d:
        raise DimensionMismatch("exponent vector of length %d in dimension %d" % (len(w), d))
    bound = _checked(max(map(abs, w), default=0))
    # two's complement digits, then the bias bit of each digit flipped
    return int.from_bytes(struct.pack(">%dh" % d, *w), "big") ^ _origin(d), bound


def _decode(codes, d, k):
    """The first k coordinates of each code of d digits, in order.

    The codes go into one buffer of big-endian shorts, the bias bit of
    each digit flipped, which one struct.iter_unpack reads back.
    """
    drop = RADIX_BITS * (d - k)
    flip = _origin(k)
    size = 2 * k
    buf = b"".join([((code >> drop) ^ flip).to_bytes(size, "big") for code in codes])
    return struct.iter_unpack(">%dh" % k, buf)


def _live(counts, k):
    """(vector, count) for each code of k digits with a non-zero count."""
    if 0 in counts.values():
        counts = {code: e for code, e in counts.items() if e}
    return zip(_decode(counts, k, k), counts.values())


def _add_into(out, items):
    """Add (code, coefficient) pairs into a packed dict; zeros are deleted."""
    get = out.get
    for k, c in items:
        s = get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


class KClass:
    """Laurent polynomial with integer coefficients, exponentwise sparse.

    `terms` maps packed exponent codes to non-zero coefficients and
    `bound` bounds every |exponent|; see the module docstring.
    """

    __slots__ = ("dim", "terms", "bound")

    def __init__(self, dim, terms=None):
        """Class of {exponent tuple: coefficient}; zero coefficients are dropped."""
        self.dim = dim
        self.terms = {}
        self.bound = 0
        for w, c in (terms or {}).items():
            if c:
                code, bound = _encode(w, dim)
                self.terms[code] = int(c)
                self.bound = max(self.bound, bound)

    @classmethod
    def _packed(cls, dim, terms, bound):
        """Class over an already packed dict of non-zero terms, taken as is."""
        k = object.__new__(cls)
        k.dim = dim
        k.terms = terms
        k.bound = bound
        return k

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
        return self.terms.get(_encode(w, self.dim)[0], 0)

    def rank(self):
        """Sum of all coefficients, i.e. evaluation at t = 1."""
        return sum(self.terms.values())

    def items(self, prefix=None):
        """Decoded [(exponent tuple, coefficient)], in term order.

        With prefix k each tuple holds only the first k coordinates.
        """
        k = self.dim if prefix is None else prefix
        return list(zip(_decode(self.terms, self.dim, k), self.terms.values()))

    def as_dict(self):
        """{exponent tuple: coefficient}, the decoded view of `terms`."""
        return dict(self.items())

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
        out = _add_into(dict(self.terms), other.terms.items())
        return KClass._packed(self.dim, out, max(self.bound, other.bound))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return KClass._packed(self.dim, {k: -c for k, c in self.terms.items()}, self.bound)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return KClass.zero(self.dim)
            return KClass._packed(
                self.dim, {k: c * other for k, c in self.terms.items()}, self.bound
            )
        self._check(other)
        bound = _checked(self.bound + other.bound)
        origin = _origin(self.dim)
        out = {}
        get = out.get
        for k1, c1 in self.terms.items():
            base = k1 - origin
            for k2, c2 in other.terms.items():
                k = base + k2
                s = get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return KClass._packed(self.dim, out, bound)

    __rmul__ = __mul__

    def shift(self, w):
        """Multiply by the monomial t^w (exact in the Laurent ring)."""
        code, bound = _encode(w, self.dim)
        bound = _checked(self.bound + bound)
        step = code - _origin(self.dim)
        return KClass._packed(
            self.dim, {k + step: c for k, c in self.terms.items()}, bound
        )

    def bar(self):
        """The involution t^w -> t^(-w)."""
        mirror = 2 * _origin(self.dim)
        return KClass._packed(
            self.dim, {mirror - k: c for k, c in self.terms.items()}, self.bound
        )

    def serialize(self):
        """Sorted [[exponent vector, coefficient], ...] debug form."""
        keys = sorted(self.terms)
        decoded = _decode(keys, self.dim, self.dim)
        return [[list(w), self.terms[k]] for w, k in zip(decoded, keys)]

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


def _active_fold(z, n, sign):
    """sign * Z * bar(Z) * prod (1 - t_i^-1) over the active axes i < n.

    Returns the packed terms, the flat axes i < n in increasing order and
    the bound 2 * z.bound + n of the whole product, checked before any
    key is built.  Each factor is one in-place pass over a snapshot of
    the terms that folds -c into the key of t^w / t_i, zeros deleted;
    only the term c t^w writes that key, so it still holds its old value.
    """
    d = z.dim
    bound = _checked(2 * z.bound + n)
    origin = _origin(d)
    # digit i of spread is 0 exactly when every box has w_i = 0
    spread = 0
    for k in z.terms:
        spread |= k ^ origin
    out = (z * sign * z.bar()).terms
    get = out.get
    flat = []
    for i in range(n):
        step = 1 << RADIX_BITS * (d - 1 - i)
        if not spread & DIGIT * step:
            flat.append(i)
            continue
        for k, c in zip(list(out), list(out.values())):
            k -= step
            s = get(k, 0) - c
            if s:
                out[k] = s
            else:
                del out[k]
    return out, flat, bound


def _double_flat(out, flat, d):
    """Multiply packed terms by (1 - t_i^-1) for each flat axis i, in place.

    Every term still has w_i = 0, since the other factors change only
    their own digit and never borrow, so each key of t^w / t_i has
    w_i = -1, is new, and one dict.update adds it with no collision.
    """
    for i in flat:
        step = 1 << RADIX_BITS * (d - 1 - i)
        out.update(zip([k - step for k in out], [-c for c in out.values()]))
    return out


def vertex(pi, d):
    """Equivariant vertex of a (d-1)-partition, over the full torus.

    With Z the character of the box stack and sgn = (-1)^d:

        V = Z + sgn * bar(Z) / (t_1..t_d)
              - sgn * Z * bar(Z) * (1-t_1)..(1-t_d) / (t_1..t_d)

    exactly, with no torus relation imposed.  Since
    (1-t_1)..(1-t_d) / (t_1..t_d) = sgn * (1-t_1^-1)..(1-t_d^-1),

        V = Z + sgn * bar(Z) / (t_1..t_d) - Z * bar(Z) * prod_i (1 - t_i^-1),

    which is built term by term as in vertex_half, whose product is the
    same with the d-th factor left out: one in-place pass per factor on
    an axis that some box leaves (_active_fold), then one dict.update
    per flat axis, whose new keys cannot collide (_double_flat).
    """
    z = character(pi, d)
    terms, flat, bound = _active_fold(z, d, -1)
    _double_flat(terms, flat, d)
    sgn = -1 if d % 2 else 1
    # code of -w - (1,..,1) is mirror - code(w)
    mirror = 2 * _origin(d) - _ones(d)
    _add_into(terms, z.terms.items())
    _add_into(terms, ((mirror - k, sgn * c) for k, c in z.terms.items()))
    return KClass._packed(d, terms, bound)


def cy_reduce(a):
    """Normal form modulo t_1..t_d = 1.

    Every exponent vector w is replaced by w - w_d * (1,..,1), so the
    last exponent becomes 0; coefficients merge.  Idempotent.
    """
    bound = _checked(2 * a.bound)
    ones = _ones(a.dim)
    out = {}
    get = out.get
    for k, c in a.terms.items():
        m = (k & DIGIT) - BIAS
        if m:
            k -= m * ones
        s = get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return KClass._packed(a.dim, out, bound)


def cy_fixed_part(a):
    """Coefficient of the torus-fixed (zero) weight after reduction.

    The exponents that reduce to zero are the diagonal ones m * (1,..,1)
    with |m| <= a.bound; their coefficients are summed by lookup, and no
    reduced class is built.
    """
    ones = _ones(a.dim)
    origin = BIAS * ones
    get = a.terms.get
    return sum(get(origin + m * ones, 0) for m in range(-a.bound, a.bound + 1))


def cy_fold(a):
    """One pass of cy_reduce that also folds each weight onto its mirror.

    Returns (fixed, odd, pairs).  Each code loses w_d * ONES, as in
    cy_reduce, whose bound 2 * a.bound is checked first.  fixed is the
    summed coefficient of the origin, cy_fixed_part(a).  Code order is
    lexicographic, so a reduced code below the origin is a weight whose
    first non-zero entry is negative: it is folded onto its mirror -w,
    and odd is the parity of the coefficients folded so.  pairs yields
    (w, net) for each folded weight whose coefficients do not cancel,
    w of length d with w_d = 0, decoded from one buffer.
    """
    _checked(2 * a.bound)
    ones = _ones(a.dim)
    origin = BIAS * ones
    mirror = 2 * origin
    folded = {}
    get = folded.get
    odd = fixed = 0
    for code, c in a.terms.items():
        m = (code & DIGIT) - BIAS
        if m:
            code -= m * ones
        if code < origin:
            code = mirror - code
            odd ^= c & 1
        elif code == origin:
            fixed += c
            continue
        folded[code] = get(code, 0) + c
    return fixed, odd, _live(folded, a.dim)


def locus_fold(v):
    """One pass that restricts each weight of v to lam_1 + .. + lam_{d-1} = 0.

    Returns (crit, odd, pairs).  With m = w_{d-1}, the top d-2 digits of
    a code minus m * ONES are the code r of (w_i - w_{d-1})_{i<=d-2};
    the Calabi-Yau shift by w_d cancels in it, and the bound 2 * v.bound
    checked first keeps every difference in a digit.  At r = origin the
    weight is critical: crit sums its coefficient under the key
    u = w_{d-1} - w_d, the weight's value on the locus.  Any other r is
    folded onto its mirror when it lies below the origin, odd being the
    parity of the coefficients folded so, and pairs yields (r, net) for
    each folded r whose coefficients do not cancel, r of length d-2,
    decoded from one buffer.
    """
    _checked(2 * v.bound)
    k = v.dim - 2
    ones = _ones(k)
    origin = BIAS * ones
    mirror = 2 * origin
    crit = {}
    rest = {}
    get = rest.get
    odd = 0
    for code, c in v.terms.items():
        high = code >> RADIX_BITS
        m = (high & DIGIT) - BIAS
        r = (high >> RADIX_BITS) - m * ones
        if r == origin:
            u = (high & DIGIT) - (code & DIGIT)
            crit[u] = crit.get(u, 0) + c
            continue
        if r < origin:
            r = mirror - r
            odd ^= c & 1
        rest[r] = get(r, 0) + c
    return crit, odd, _live(rest, k)


def key_verdict(v):
    """Classify the torus-fixed multiplicity of an already-built vertex.

    For even d the half vertex v = vertex_half(pi, d), or its orbits
    (half_vertex_orbits), give the verdict of V, twice their fixed part.

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

    Z is the character of the box stack.  With v this class and
    cy = cy_reduce, cy(V) = cy(v) + (-1)^d * cy(bar(v)) for every d.  The
    CLI reads v through half_vertex_orbits, whose oracle this is.
    """
    z = character(pi, d)
    terms, flat, bound = _active_fold(z, d - 1, -1)
    return KClass._packed(d, _add_into(_double_flat(terms, flat, d), z.terms.items()), bound)


def half_vertex_orbits(pi, d, minus_half=False):
    """v = vertex_half(pi, d) up to permutations of its flat axes, and -v.

    With Q = Z * bar(Z) * prod (1 - t_i^-1) over the active axes among
    1..d-1, v = Z - sum (-1)^|S| * Q / t_S over the sets S of flat axes,
    so the codes with j of their f flat digits -1 (the others 0) form
    orbits of C(f, j) codes with one coefficient.  Returns (orbits,
    flatmask, nv): orbits, with the bound of v, holds (-1)^(j+1) * Q / t_S
    for S the first j flat axes, j = 0..f, plus Z, and has the fixed part
    of v (a diagonal code is an orbit of one); bit i of flatmask marks
    axis i + 1 flat; nv = -v, from the same Q, if minus_half, else None.
    """
    z = character(pi, d)
    q, flat, bound = _active_fold(z, d - 1, 1)
    neg = [-c for c in q.values()]
    orbits = dict(zip(q, neg))
    shift = 0
    for j, i in enumerate(flat, 1):
        shift += 1 << RADIX_BITS * (d - 1 - i)
        orbits.update(zip([k - shift for k in q], q.values() if j % 2 else neg))
    _add_into(orbits, z.terms.items())
    nv = None
    if minus_half:
        terms = _add_into(_double_flat(q, flat, d), ((k, -c) for k, c in z.terms.items()))
        nv = KClass._packed(d, terms, bound)
    return KClass._packed(d, orbits, bound), sum(1 << i for i in flat), nv

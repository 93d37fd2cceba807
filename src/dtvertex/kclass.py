"""Sparse integer Laurent polynomials in t_1..t_d and the equivariant vertex.

A KClass is a finite map from exponent vectors in Z^d to non-zero
integer coefficients: the torus character of a box stack, the vertex
class of its ideal, and all derived from them, exact over Z; division by
the coordinate product is multiplication by the inverse monomial.

Each exponent vector is stored as one packed integer.  With radix 2^16
and bias 2^15 the vector w = (w_1, .., w_d) has the code

    code(w) = sum_i (w_i + 2^15) * 2^(16 (d - i))        (i = 1..d)

so w_1 sits in the top 16-bit digit and integer order is the
lexicographic order of the vectors.  A shift by t^v adds
code(v) - code(0), bar(w) is 2 code(0) - code(w), the product of two
monomials has code(a) + code(b) - code(0), and the reduction modulo
t_1..t_d = 1 reads w_d from the bottom digit and subtracts w_d * ONES,
where ONES = sum_i 2^(16 (i - 1)).

A digit holds w_i + 2^15 only for |w_i| < 2^15, so every class carries
`bound`, an upper bound on |w_i| that +, *, shift and cy_reduce update
in O(1); an operation whose bound reaches 2^15 raises ExponentOverflow
before it builds a key.  Tuples cross the boundary only at the edges
(the constructor, monomial, coefficient and shift encode; items,
as_dict, serialize, sorted_codes, the folds and interior_items decode),
and no other module reads a code: cy_fold reduces a class modulo
t_1..t_d = 1 and folds it onto mirrored weights, locus_fold restricts it
to lam_1 + .. + lam_{d-1} = 0, and both hand integer vectors to forms.

The vertex multiplies Z * bar(Z) by one factor (1 - t_i^-1) per axis.
On an axis that no box leaves (a flat axis) every term has w_i = 0, so
the factor doubles the dict by one dict.update with no lookups, once
the other axes have folded term by term.  half_vertex_orbits keeps the
half vertex v as one code per orbit of the flat axes, and -v as a
FlatBlocks: the product Q over the active axes, the flat axes F and the
tail -Z.  A term c t^w of Q stands for the block of the 2^f codes
(-1)^|S| c t^w / t_S, S in F, and when F ends the base axes, as for
every canonical representative, the folds take a block at once.  Its
codes reduce alike; the digits before F, or if these are 0 the flat
value x (x > 0 stays), fold it onto the block of mirror - b + t_F with
coefficient (-1)^f c.  Only the corners S = {} and S = F can meet the
origin or a code of another block, so they alone go code by code; the
2^f - 2 interior codes, an even number of +-c, leave the parity alone,
and each holds x and x - 1, a primitive form no other code shares, so
they stay one interior value, a net per block, until interior_items
decodes them; interior_degree sums them from the nets.
"""

from __future__ import annotations

import struct
from collections import namedtuple

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

    def sorted_codes(self):
        """(the codes in increasing order as big-endian bytes, their coefficients)."""
        keys = sorted(self.terms)
        width = RADIX_BITS // 8 * self.dim
        return b"".join([k.to_bytes(width, "big") for k in keys]), [self.terms[k] for k in keys]

    def __repr__(self):
        return "KClass(%d, %d terms)" % (self.dim, len(self.terms))


FlatBlocks = namedtuple("FlatBlocks", "dim q flat tail bound")
FlatBlocks.__doc__ = """q * prod (1 - t_i^-1) over the flat axes i, plus tail, as packed
dicts whose terms have w_i = 0 on every flat axis; bound bounds the
exponents of the class that the blocks stand for."""


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

    Every term still has w_i = 0 (the other factors change only their
    own digit and never borrow), so each key of t^w / t_i is new and one
    dict.update adds it with no collision.
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

    built as vertex_half is, with the d-th factor too: one in-place pass
    per factor on an axis that some box leaves (_active_fold), then one
    dict.update per flat axis (_double_flat).
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
    out = _add_into({}, ((k - ((k & DIGIT) - BIAS) * ones, c) for k, c in a.terms.items()))
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


def interior_items(interior):
    """[(w, coefficient)] of the codes of an interior (k, blocks, steps):
    each folded base code b (k digits) of blocks, with net c != 0, stands
    for the codes b / t_S with coefficient (-1)^|S| c, S a proper
    non-empty subset of the f >= 2 block axes, whose code steps are steps."""
    k, blocks, steps = interior
    offs = [(0, 1)]
    for step in steps:
        offs += [(o + step, -s) for o, s in offs]
    inner = offs[1:-1]
    codes, coeffs = [], []
    for b, c in blocks.items():
        codes += [b - o for o, _ in inner]
        coeffs += [s * c for _, s in inner]
    return list(zip(_decode(codes, k, k), coeffs))


def interior_degree(interior):
    """Sum of the coefficients: -(1 + (-1)^f) c per block, always even."""
    return -(1 + (-1) ** len(interior[2])) * sum(interior[1].values())


def _fold(a, k, restrict, split=False):
    """(crit, odd, interior, pairs) of a KClass or a FlatBlocks a, its
    bound 2 * a.bound checked first; restrict maps each code to (r, u), r
    of k digits.  At r = origin crit[u] sums the coefficient; another r
    below the origin folds onto its mirror, odd the parity of the
    coefficients folded so, and pairs lists (r, net) for each folded r
    with a net.  The flat axes after the last active base axis are block
    axes (split makes the halves of the last one blocks), the others are
    multiplied out.  A block's constants are closed forms: its far
    corner is t^-top, top the sum of the steps, with sign (-1)^f, and
    every interior code folds as b / t_i, i the first block axis.
    Corners go code by code; the interior codes gather under the
    (mirrored) base b into interior, (k, blocks, steps) or None.
    """
    if isinstance(a, KClass):
        a = FlatBlocks(a.dim, {}, (), a.terms, a.bound)
    _checked(2 * a.bound)
    flat, n = a.flat, len(a.flat)
    while n and flat[n - 1] == a.dim - 2 - len(flat) + n:
        n -= 1
    units = _double_flat(dict(a.q), flat[:n], a.dim) if n else a.q
    axes = flat[n:]
    if split and axes:
        step = 1 << RADIX_BITS * (a.dim - 1 - axes[-1])
        units = {**units, **{code - step: -c for code, c in units.items()}}
        axes = axes[:-1]
    origin = _origin(k)
    mirror = 2 * origin
    steps = [1 << RADIX_BITS * (k - 1 - i) for i in axes]
    top, sign = sum(steps), (-1) ** len(steps)
    first = steps[0] if len(steps) > 1 else None
    pieces = [(*restrict(code), c) for code, c in a.tail.items()]
    blocks = {}
    for code, c in units.items():
        r, u = restrict(code)
        pieces.append((r, u, c))
        if top:
            pieces.append((r - top, u, sign * c))
        if first:
            if r - first < origin:
                r = mirror - r + top
                c *= sign
            blocks[r] = blocks.get(r, 0) + c
    crit, rest, odd = {}, {}, 0
    for r, u, c in pieces:
        if r == origin:
            crit[u] = crit.get(u, 0) + c
            continue
        if r < origin:
            r = mirror - r
            odd ^= c & 1
        rest[r] = rest.get(r, 0) + c
    rest = {r: c for r, c in rest.items() if c}
    blocks = {b: c for b, c in blocks.items() if c}
    interior = (k, blocks, steps) if blocks else None
    return crit, odd, interior, list(zip(_decode(rest, k, k), rest.values()))


def cy_fold(a):
    """One pass of cy_reduce that also folds each weight onto its mirror.

    Returns (fixed, odd, interior, pairs) for a KClass or a FlatBlocks
    (the bound 2 * a.bound of cy_reduce checked).  fixed is
    cy_fixed_part(a); a reduced code below the origin, a weight whose
    first non-zero entry is negative, folds onto -w (_fold).  pairs
    lists (w, net) for each folded w, of length d with w_d = 0; interior
    (_fold) holds the interior codes, each primitive and alone on its form.
    """
    ones = _ones(a.dim)
    crit, odd, interior, pairs = _fold(a, a.dim, lambda w: (w - ((w & DIGIT) - BIAS) * ones, 0))
    return crit.get(0, 0), odd, interior, pairs


def locus_fold(v):
    """One pass that restricts each weight of v to lam_1 + .. + lam_{d-1} = 0.

    Returns (crit, odd, pairs) for a KClass or a FlatBlocks.  With
    m = w_{d-1}, the top d-2 digits of a code minus m * ONES are the
    code r of (w_i - w_{d-1})_{i<=d-2}, where the Calabi-Yau shift
    cancels and the checked bound 2 * v.bound keeps every difference in
    a digit.  crit sums the coefficients of the critical weights
    (r = origin) under u = w_{d-1} - w_d, their value on the locus, and
    pairs lists the other r, folded (_fold).  An interior code is never
    critical and shares no form, so the interior is expanded into pairs
    only when a block survives, a direction that survives on the locus.
    """
    ones = _ones(v.dim - 2)

    def restrict(code):
        high = code >> RADIX_BITS
        m = (high & DIGIT) - BIAS
        return (high >> RADIX_BITS) - m * ones, m + BIAS - (code & DIGIT)

    crit, odd, interior, pairs = _fold(v, v.dim - 2, restrict, split=True)
    return crit, odd, pairs + interior_items(interior) if interior else pairs


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


def half_vertex_orbits(pi, d):
    """v = vertex_half(pi, d) up to permutations of its flat axes, and -v.

    With Q = Z * bar(Z) * prod (1 - t_i^-1) over the active axes among
    1..d-1, v = Z - sum (-1)^|S| Q / t_S over the sets S of flat axes, so
    the C(f, j) codes with j of their f flat digits -1 share a
    coefficient.  Returns (orbits, flatmask, nv): orbits, with the bound
    and the fixed part of v, holds (-1)^(j+1) Q / t_S for S the first j
    flat axes, j = 0..f, plus Z; bit i of flatmask marks axis i + 1 flat;
    nv = -v as the FlatBlocks of Q, the flat axes and -Z.
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
    nv = FlatBlocks(d, q, tuple(flat), {k: -c for k, c in z.terms.items()}, bound)
    return KClass._packed(d, orbits, bound), sum(1 << i for i in flat), nv

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
(the constructor, monomial and shift encode; items,
as_dict, serialize, block_bytes, the folds and interior_items decode),
and no other module reads a code: cy_fold reduces FlatBlocks modulo
t_1..t_d = 1 and folds them onto mirrored weights, locus_fold restricts
them to lam_1 + .. + lam_{d-1} = 0; both hand integer vectors to forms.

The vertex multiplies Z * bar(Z) by one factor (1 - t_i^-1) per axis.
On an axis that no box leaves (a flat axis) every term has w_i = 0, so
the factor doubles the dict by one dict.update with no lookups, once
the other axes have folded term by term.  A vertex builds its blocks
on their first read (_Vertex); a keyconj verdict builds none, but reads
V's diagonal from the pairs of boxes (pair_fixed_part).
half_vertex_blocks gives
-v, for v the half vertex Z - Z * bar(Z) * prod_{i<d} (1 - t_i^-1), as a
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
decodes them; cy_corners reads fixed and odd of cy_fold off the
corners alone.
"""

from __future__ import annotations

import functools
import struct
from collections import namedtuple
from itertools import chain
from operator import mul, sub

from .errors import ArityMismatch, DimensionMismatch, ExponentOverflow
from .partitions import MultiPartition

KEY_OK = "ok"
KEY_EULER_VANISHES = "euler_vanishes"
KEY_VIOLATED = "violated"

RADIX_BITS = 16
# Added to every exponent; also the exclusive limit of |exponent|.
BIAS = 1 << (RADIX_BITS - 1)
DIGIT = (1 << RADIX_BITS) - 1


@functools.cache
def _ones(d):
    """Code step of the all-ones vector: one unit in each of the d digits."""
    return ((1 << RADIX_BITS * d) - 1) // DIGIT


@functools.cache
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


def _decode(codes, d):
    """The exponent vector of each code of d digits, in order.

    The codes go into one buffer of big-endian shorts, the bias bit of
    each digit flipped, which one struct.iter_unpack reads back.
    """
    flip = _origin(d)
    size = 2 * d
    buf = b"".join([(code ^ flip).to_bytes(size, "big") for code in codes])
    return struct.iter_unpack(">%dh" % d, buf)


def add_into(out, items):
    """out with the values of (key, value) items added, in place: packed
    codes and coefficients here, forms and exponents in forms.  A key
    whose value nets to zero is deleted, and adding 0 to an absent key
    changes nothing."""
    get = out.get
    for k, c in items:
        s = get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class KClass:
    """Laurent polynomial with integer coefficients, exponentwise sparse.

    `terms` maps packed exponent codes to non-zero coefficients and
    `bound` bounds every |exponent|; see the module docstring.  The folds
    read a class through `blocks`: its terms as the tail of a FlatBlocks.
    """

    __slots__ = ("dim", "terms", "bound")

    def __init__(self, dim, terms=None):
        """Class of {exponent tuple: coefficient}; zero coefficients are dropped."""
        self.dim = dim
        self.terms = packed = {}
        self.bound = 0
        for w, c in (terms or {}).items():
            if c:
                code, bound = _encode(w, dim)
                packed[code] = int(c)
                self.bound = max(self.bound, bound)

    @classmethod
    def _packed(cls, dim, terms, bound):
        """Class over an already packed dict of non-zero terms, taken as is."""
        k = object.__new__(cls)
        k.dim = dim
        k.terms = terms
        k.bound = bound
        return k

    @property
    def blocks(self):
        """The class as a FlatBlocks: no q, no flat axes, its terms the tail."""
        return FlatBlocks(self.dim, {}, (), self.terms, self.bound)

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

    def rank(self):
        """Sum of all coefficients, i.e. evaluation at t = 1."""
        return sum(self.terms.values())

    def items(self):
        """Decoded [(exponent tuple, coefficient)], in term order."""
        return list(zip(_decode(self.terms, self.dim), self.terms.values()))

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
        out = add_into(dict(self.terms), other.terms.items())
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
        right = other.terms.items()
        out = {}
        get = out.get
        for k1, c1 in self.terms.items():
            base = k1 - origin
            for k2, c2 in right:
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
        decoded = _decode(keys, self.dim)
        return [[list(w), self.terms[k]] for w, k in zip(decoded, keys)]

    def __repr__(self):
        return "KClass(%d, %d terms)" % (self.dim, len(self.terms))


FlatBlocks = namedtuple("FlatBlocks", "dim q flat tail bound")
FlatBlocks.__doc__ = """q * prod (1 - t_i^-1) over the flat axes i, plus tail, as packed
dicts; every term of q has w_i = 0 on every flat axis, and bound bounds
the exponents of the class that the blocks stand for."""


def _box_bound(pi, d):
    """The checked bound max(i_j - 1, h - 1) of a (d-1)-partition's boxes."""
    if not isinstance(pi, MultiPartition) or pi.arity != d - 1:
        raise ArityMismatch("expected a partition of arity %d" % (d - 1,))
    return _checked(max([1, *pi.heights.values(), *chain.from_iterable(pi.heights)]) - 1)


def character(pi, d):
    """Torus character of the box stack of a (d-1)-partition.

    Each box (0-based cell) contributes one monomial; the number of
    terms equals the partition size.  The bound (_box_bound) is checked
    first, then the codes are built straight from the heights, in the
    order of pi.cells(): a column over the base index i holds the codes
    origin + sum_j (i_j - 1) * 2^(16 (d-1-j)) + m, m < h.
    """
    bound = _box_bound(pi, d)
    steps = [1 << RADIX_BITS * (d - 1 - j) for j in range(d - 1)]
    low = _origin(d) - sum(steps)
    terms = {}
    for idx, h in sorted(pi.heights.items()):
        base = low + sum(map(mul, idx, steps))
        terms.update(dict.fromkeys(range(base, base + h), 1))
    return KClass._packed(d, terms, bound)


def _active_fold(z, n, sign):
    """sign * Z * bar(Z) * prod (1 - t_i^-1) over the active axes i < n.

    Returns the packed terms, the flat axes i < n in increasing order and
    the bound 2 * z.bound + n of the whole product, checked before any
    key is built.  sign * Z * bar(Z) is one double loop over the items
    of Z, the product of t^a and t^-b at the code a - b + origin.  Each
    factor is then one in-place pass over a snapshot of the terms that
    folds -c into the key of t^w / t_i, zeros deleted; only the term
    c t^w writes that key, so it still holds its old value.
    """
    d = z.dim
    bound = _checked(2 * z.bound + n)
    origin = _origin(d)
    # digit i of spread is 0 exactly when every box has w_i = 0
    spread = 0
    for k in z.terms:
        spread |= k ^ origin
    items = z.terms.items()
    out = {}
    get = out.get
    for a, c in items:
        a += origin
        c *= sign
        for b, e in items:
            k = a - b
            s = get(k, 0) + c * e
            if s:
                out[k] = s
            else:
                del out[k]
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

        V = Z + sgn * bar(Z) / (t_1..t_d) - Z * bar(Z) * prod_i (1 - t_i^-1).

    The arity and both bounds, of Z and 2 * bound(Z) + d, are checked
    here; Z and the blocks of V wait for their first read (_Vertex).
    """
    return _Vertex(pi, d, _checked(2 * _box_bound(pi, d) + d))


class _Vertex(KClass):
    """vertex(pi, d), the one lazy class: FlatBlocks built on their first
    read (Q over the active axes, _active_fold; the flat axes F among all
    d; the tail Z + sgn * bar(Z) / (t_1..t_d)), terms on theirs (Q times
    (1 - t_i^-1) per F, then the tail); repr and cy_fixed_part build neither."""

    __slots__ = ("pi", "_blocks", "_terms")

    def __init__(self, pi, d, bound):
        self.dim, self.bound, self.pi = d, bound, pi
        self._blocks = self._terms = None

    @property
    def blocks(self):
        if self._blocks is None:
            d, z = self.dim, character(self.pi, self.dim)
            q, flat, bound = _active_fold(z, d, -1)
            sgn = -1 if d % 2 else 1
            # code of -w - (1,..,1) is mirror - code(w); the codes of Z have
            # every w_i >= 0 and their mirrors every w_i <= -1, so no code is shared
            mirror = 2 * _origin(d) - _ones(d)
            tail = {**z.terms, **{mirror - k: sgn * c for k, c in z.terms.items()}}
            self._blocks = FlatBlocks(d, q, tuple(flat), tail, bound)
        return self._blocks

    @property
    def terms(self):
        if self._terms is None:
            nv = self.blocks
            self._terms = add_into(_double_flat(dict(nv.q), nv.flat, self.dim), nv.tail.items())
        return self._terms

    def __repr__(self):
        return "vertex(%r, %d)" % (self.pi, self.dim)


def pair_fixed_part(pi, d):
    """cy_fixed_part(vertex(pi, d)): (1 + (-1)^d) D, D the boxes on the
    diagonal, less c(a - b) over all ordered pairs (a, b) of boxes, c(v)
    the fixed part of t^v * prod_i (1 - t_i^-1): 1 + (-1)^d for constant
    v, (-1)^#{i : v_i = max v} if max v - min v = 1, else 0.  At odd d the
    pairs cancel as computed.  A box is read on the active axes, one zero
    standing in for the flat axes (two if they are even in number, which
    keeps the parity of #{i : v_i = max v})."""
    boxes = list(pi.cells())
    axes = [w for w in zip(*boxes) if any(w)]
    if len(axes) < d:
        axes += [(0,) * len(boxes)] * (2 - (d - len(axes)) % 2)
    rows = list(zip(*axes))
    even = 1 + (-1) ** d
    fixed = even * sum(len(set(r)) == 1 for r in rows)
    for a in rows:
        for b in rows:
            v = list(map(sub, a, b))
            top, low = max(v), min(v)
            if top - low < 2:
                fixed -= even if top == low else (-1) ** v.count(top)
    return fixed


def cy_reduce(a):
    """Normal form modulo t_1..t_d = 1.

    Every exponent vector w is replaced by w - w_d * (1,..,1), so the
    last exponent becomes 0; coefficients merge.  Idempotent.
    """
    bound = _checked(2 * a.bound)
    ones = _ones(a.dim)
    out = add_into({}, ((k - ((k & DIGIT) - BIAS) * ones, c) for k, c in a.terms.items()))
    return KClass._packed(a.dim, out, bound)


def cy_fixed_part(a):
    """Coefficient of the torus-fixed (zero) weight after reduction.

    The exponents that reduce to zero are the diagonal ones m * (1,..,1)
    with |m| <= a.bound, and no reduced class is built; a vertex is read
    from its pairs of boxes (pair_fixed_part).  Of a FlatBlocks, as of
    any other class through its blocks, the tail is read code by
    code: with low = code(-bound * (1,..,1)), code - low has the digits
    w_i + bound, each in [0, 2 * bound], so the code is diagonal exactly
    when code - low is m * ONES with 0 <= m <= 2 * bound.  Of each block
    only its two corners can be fixed, t^w with c and t^w / t_F with
    (-1)^f c: every other code holds both 0 and -1 on the flat axes.
    Every term of q has w_i = 0 on a flat axis, so with F non-empty a
    near corner is diagonal only at m = 0 (one lookup of the origin) and
    a far corner only at m = -1 (one lookup of origin - ONES + t_F); with
    F empty, q is looked up at each of the 2 * bound + 1 diagonal codes.
    """
    if isinstance(a, _Vertex):
        return pair_fixed_part(a.pi, a.dim)
    if isinstance(a, KClass):
        a = a.blocks
    origin, ones = _origin(a.dim), _ones(a.dim)
    low, span = origin - a.bound * ones, 2 * a.bound * ones
    q = a.q.get
    if a.flat:
        top = sum(1 << RADIX_BITS * (a.dim - 1 - i) for i in a.flat)
        fixed = q(origin, 0) + (-1) ** len(a.flat) * q(origin - ones + top, 0)
    else:
        fixed = sum(q(k, 0) for k in range(low, low + span + 1, ones))
    for k, c in a.tail.items():
        k -= low
        if 0 <= k <= span and not k % ones:
            fixed += c
    return fixed


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
    return list(zip(_decode(codes, k), coeffs))


def _corners(a, k, restrict=None, split=False):
    """(pieces, units, steps) of a FlatBlocks a, its bound 2 * a.bound
    checked first; restrict maps a code and its coefficient c to (r, u, c),
    r of k digits, by default modulo t_1..t_d = 1.  The flat axes after the
    last active base axis are block axes, of code steps steps; the others
    are multiplied out.  split (locus_fold) makes the halves of the last
    block axis, d - 1, blocks with no copy of q: a code with w_{d-1} = 0
    restricts to (r, u), its half t^w / t_{d-1} to (r + ONES, u - 1).
    units are the near corners, q restricted; pieces go code by code: the
    tail, the near corners and the far corners t^-top (top the sum of the
    steps) with sign (-1)^f.
    """
    _checked(2 * a.bound)
    ones = _ones(k)
    restrict = restrict or (lambda w, c: (w - ((w & DIGIT) - BIAS) * ones, 0, c))
    flat, n = a.flat, len(a.flat)
    while n and flat[n - 1] == a.dim - 2 - len(flat) + n:
        n -= 1
    units = _double_flat(dict(a.q), flat[:n], a.dim) if n else a.q
    axes = flat[n:]
    units = [restrict(code, c) for code, c in units.items()]
    if split and axes:
        units += [(r + ones, u - 1, -c) for r, u, c in units]
        axes = axes[:-1]
    steps = [1 << RADIX_BITS * (k - 1 - i) for i in axes]
    top, sign = sum(steps), (-1) ** len(steps)
    pieces = [restrict(code, c) for code, c in a.tail.items()] + units
    if top:
        pieces += [(r - top, u, sign * c) for r, u, c in units]
    return pieces, units, steps


def _fold(a, k, restrict=None, split=False):
    """(crit, odd, interior, pairs) of a (_corners).  At r = origin crit[u]
    sums c; another r below the origin folds onto its mirror, odd the
    parity of the c folded so, and pairs lists (r, net) for each folded r
    with a net.  Every interior code folds as b / t_i, i the first block
    axis, and gathers under the (mirrored) base b into interior,
    (k, blocks, steps) or None.
    """
    pieces, units, steps = _corners(a, k, restrict, split)
    origin = _origin(k)
    mirror = 2 * origin
    top, sign = sum(steps), (-1) ** len(steps)
    first = steps[0] if len(steps) > 1 else None
    blocks = {}
    for r, u, c in units if first else ():
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
    return crit, odd, interior, list(zip(_decode(rest, k), rest.values()))


def cy_fold(a):
    """One pass of cy_reduce that also folds each weight onto its mirror.

    Returns (fixed, odd, interior, pairs) for a FlatBlocks a
    (the bound 2 * a.bound of cy_reduce checked).  fixed is
    cy_fixed_part(a); a reduced code below the origin, a weight whose
    first non-zero entry is negative, folds onto -w (_fold).  pairs
    lists (w, net) for each folded w, of length d with w_d = 0; interior
    (_fold) holds the interior codes, each primitive and alone on its form.
    """
    crit, odd, interior, pairs = _fold(a, a.dim)
    return crit.get(0, 0), odd, interior, pairs


def cy_corners(a):
    """(fixed, odd, degree) of cy_fold(a) from the pieces of _corners alone
    (no interior code is fixed or changes the parity); degree, the net
    exponent of the weights, is the coefficient sum of a less fixed."""
    origin = _origin(a.dim)
    fixed = odd = 0
    for r, _, c in _corners(a, a.dim)[0]:
        if r == origin:
            fixed += c
        elif r < origin:
            odd ^= c & 1
    rank = sum(a.tail.values()) + (0 if a.flat else sum(a.q.values()))
    return fixed, odd, rank - fixed


def locus_fold(v):
    """One pass that restricts each weight of v to lam_1 + .. + lam_{d-1} = 0.

    Returns (crit, odd, pairs) for a FlatBlocks v.  With
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

    def restrict(code, c):
        high = code >> RADIX_BITS
        m = (high & DIGIT) - BIAS
        return (high >> RADIX_BITS) - m * ones, m + BIAS - (code & DIGIT), c

    crit, odd, interior, pairs = _fold(v, v.dim - 2, restrict, split=True)
    return crit, odd, pairs + interior_items(interior) if interior else pairs


def key_verdict(v):
    """Classify the torus-fixed multiplicity of a vertex.

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


def half_vertex_blocks(pi, d):
    """-v as a FlatBlocks, v = Z - Z * bar(Z) * prod_{i<d} (1 - t_i^-1) the
    half vertex of a (d-1)-partition, Z the character of its box stack:
    q the box product over the active axes, the flat axes and the tail -Z,
    which the insertion cancels on the locus, so a weight restricts q alone.
    With cy = cy_reduce, cy(V) = cy(v) + (-1)^d * cy(bar(v)) for every d.
    """
    z = character(pi, d)
    q, flat, bound = _active_fold(z, d - 1, 1)
    return FlatBlocks(d, q, tuple(flat), {k: -c for k, c in z.terms.items()}, bound)


def block_bytes(nv):
    """The bytes that fix a FlatBlocks: b"dim:mask:count:count:", bit i
    of mask marking axis i + 1 flat and the counts those of q and of the
    tail, then their codes, each in increasing order, as big-endian
    bytes, and the repr of the coefficients in that order."""
    q, tail = sorted(nv.q), sorted(nv.tail)
    head = b"%d:%d:%d:%d:" % (nv.dim, sum(1 << i for i in nv.flat), len(q), len(tail))
    width = RADIX_BITS // 8 * nv.dim
    coeffs = [nv.q[k] for k in q] + [nv.tail[k] for k in tail]
    return head + b"".join([k.to_bytes(width, "big") for k in q + tail]) + repr(coeffs).encode()

"""Slow, independent reference implementations that the tests compare
the package against.

- The tuple-keyed vertex and its reduction, which the packed-integer
  KClass replaced: exponent vectors are plain tuples and every class is
  a {tuple: coefficient} dict.  They are slow (hash collisions between
  -1 and -2 entries make large dicts crawl) but independent of the
  packed encoding.
- The class-algebra vertex that the one-pass-per-factor product
  replaced: Z * bar(Z) * prod (1 - t_i^-1) built with KClass *, shift
  and -, and the full vertex assembled from the half vertex.  It keeps
  the packed keys but checks every exponent bound step by step, so it
  pins the bound and the ExponentOverflow inputs as well as the terms.
  Its half vertex is the expanded v whose blocks of -v the package
  keeps (kclass.half_vertex_blocks).
- The eager full vertex: the box product over the active axes doubled
  once per flat axis, then Z and its mirror added term by term, which
  the pending blocks of kclass.vertex replaced; their expansion must
  give its terms in its insertion order.
- The packed box product with one in-place pass per factor on every
  axis, which the single update per flat axis replaced for the axes
  that no box leaves.
- The packed kernel's old routes: the box character encoded cell by
  cell through the KClass constructor, sign * Z * bar(Z) built as three
  classes before the active axes fold, and the fixed part that looks up
  every multiplied-out diagonal code in the tail and at both corners of
  every block.  The codes built from the heights, the one double loop
  over the items of Z and the two corner lookups of Q replaced them;
  the eager and class-algebra vertices above start from these routes.
- The fixed part c0 of the half vertex in closed form, from the boxes
  alone: D, the boxes on the diagonal, minus a signed count of ordered
  pairs of boxes.  It shares no code with the blocks.
- The materialized -v of the half vertex, and the Calabi-Yau and locus
  folds that read it code by code, which the folds of kclass replaced:
  they take -v as the blocks of kclass.FlatBlocks, one per term of the
  product over the active axes, and decode each interior code of a
  block without a merge.
- The omega decomposition search that the floored search of
  omega._search replaced: its candidates are every sub-partition of the
  column profile as a MultiPartition, from a walk that gives each cell
  every height down to 0 (no must-hold floor), and it tries each one no
  larger than the remainder (no corner-count bounds) on a dict
  remainder.  Both bounds drop only parts and branches that cannot
  close, so the lists agree in order.
- omega_c of a 1-partition in closed form, the product of the inverse
  factorials of its successive height differences, which omega_c kept
  beside the search until the search took arity 1 as well.
- omega_c by the first-part recursion h! omega_c(pi) = sum over the
  parts P of (h - 1)! omega_c(pi - P), memoized on canonical
  remainders: it counts ordered decompositions and runs no search.
- The bounded partition enumeration: slices a bounding height map along
  the first axis and meets each slice with the partition's previous
  slice, one size at a time.  It checks omega's candidate lists and,
  unbounded, enumerate_partitions, which lists the orbits of the grown
  representatives; it also lists every partition for the grouping and
  per-partition oracles below, so they never share the growth.
- The bounding height map built one axis per round: floor(size /
  prod(index)) at every index, the greatest height any partition of the
  size reaches there.
- The partition validator that checked the successor and the
  predecessor of every index on every axis, which the check of
  predecessors along raised axes replaced.
- Two partition counts: brute-force down-sets of boxes and a closed
  binomial form for sizes up to 6, which at arity 0 is the geometric
  series and at size 0 the empty partition alone.
- The orbit representatives found by grouping every partition of the
  arity by its canonical form, which growth from the representatives of
  the previous size, padded above arity size - 1, replaced.
- canonical_form, which normalizes one raw form to (form, multiplier),
  and the per-form fold of a raw form into a form product built on it:
  the reference for the collector behind taut_factor and the full-torus
  Euler class, whose gcd-and-merge normalizer replaced canonical_form.
- The Euler class through that collector, which canonicalizes every
  decoded term of the reduced class, and the two-step specialization
  that split off the critical forms and collected the rest; the
  packed-code fold of euler_class and the one-pass specialize replaced
  them.
- The Euler class that builds cy_reduce first and unpacks each folded
  code on its own, independent of the package's buffer decoder, which
  kclass.cy_fold (one pass that reduces while it folds, one buffer
  decoded) replaced.  The route that the weight pipeline's
  read of the packed half vertex replaced, specialize on the insertion
  times the root, stays in forms as the oracle of that read.
- That read as it was before the insertion cancelled the tail -Z of -v
  on the locus: the insertion's forms restricted one by one, as
  forms.specialize restricts them, and kclass.locus_fold of all of -v,
  tail included; forms._specialize_half_vertex reads Q's blocks and the
  critical boxes alone.
- The evaluation of a form product at a point in Fraction arithmetic,
  form by form, which the integer products of FormProduct.evaluate over
  one common denominator replaced.
- The value on the locus from the units, built as QPoly products of
  the ell-units and one exact division by their bottom, which the
  integer coefficient lists of forms._locus_value replaced.
- Evaluation of a form product on the specialization locus, the
  independent check on forms.specialize, and locus_value: the same
  limit built by hand from the tuple half vertex and the boxes, with
  nothing from dtvertex.forms, the independent check on the weight
  pipeline's specialized values.
- The per-partition sums that the orbit-weighted ones replaced: the
  left side of the exp identity over every partition, with one omega_c
  each, and the odd-dimension series over every partition.
- The odd-dimension Euler ratio from the Euler class of minus the full
  vertex, which the sign (-1)^(|pi| + c0) of the half vertex replaced.
- The half-vertex fingerprints of cache schemas 3 and 4: sha256 of the
  repr of dim and the sorted (code, coefficient) pairs, which the
  packed-bytes digest of schema 4 replaced, and that digest of the
  expanded half vertex, which the digests of its flat-axis orbits
  (schema 5) and of the blocks of -v (schema 6) replaced.
- The argparse parser of the command line, which the table that
  cli.parse_args reads replaced: on the argv the tests draw both accept
  with equal fields or both reject (argparse's "--" separator is the
  one spelling the table does not keep).
- The chain of checks that cmd_check ran on a kind's dimension and
  options, which the rules of cli.KINDS replaced, with the two rules the
  table added: keyconj needs d >= 2 and remfail an odd d >= 3 or a
  d = 0 mod 4 with d >= 4 (such runs failed in the pipeline before).
- The active axes of a partition found by testing every axis against
  every cell, which the read of the cells with 2 on one axis and 1
  elsewhere replaced.
- The polynomial over Q stored as a tuple of Fraction coefficients, whose
  sums and products run Fraction arithmetic coefficient by coefficient,
  which ratpoly.QPoly (integer numerators over one denominator)
  replaced: FractionQPoly.
- Small helpers that only tests use: axis-permutation orbits, staircase
  membership, orientation flips, series powers and tables.
"""

import argparse
import functools
import hashlib
import struct
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, gcd

from dtvertex import (
    ArityMismatch,
    DegenerateSamplePoint,
    FormProduct,
    KClass,
    MultiPartition,
    QPoly,
    ShapeMismatch,
    TruncatedSeries,
    ZeroWeightDenominator,
    canonicalize_axes,
    omega_c,
)
from dtvertex.forms import (
    _collect,
    _half_vertex_euler,
    _locus_value,
    _merge_primitive,
    euler_class,
    taut_factor,
)
from dtvertex.kclass import (
    BIAS,
    DIGIT,
    KEY_VIOLATED,
    RADIX_BITS,
    _checked,
    _double_flat,
    _ones,
    _origin,
    add_into,
    key_verdict,
    locus_fold,
)
from dtvertex.kclass import cy_reduce as packed_cy_reduce
from dtvertex.kclass import vertex as packed_vertex


def _add(a, b, sign=1):
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + sign * c
        if s:
            out[w] = s
        else:
            del out[w]
    return out


def _mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            s = out.get(w, 0) + c1 * c2
            if s:
                out[w] = s
            else:
                del out[w]
    return out


def _shift(a, v):
    return {tuple(x + y for x, y in zip(w, v)): c for w, c in a.items()}


def _bar(a):
    return {tuple(-x for x in w): c for w, c in a.items()}


def _scale(a, k):
    return {w: k * c for w, c in a.items()}


def character(pi, d):
    return {cell: 1 for cell in pi.cells()}


def vertex(pi, d):
    """{exponent tuple: coefficient} of the vertex over the full torus."""
    z = character(pi, d)
    if not z:
        return {}
    sgn = -1 if d % 2 else 1
    zbar = _bar(z)
    prod = _mul(z, zbar)
    for i in range(d):
        prod = _add(prod, _shift(prod, tuple(1 if j == i else 0 for j in range(d))), -1)
    inv = (-1,) * d
    return _add(_add(z, _scale(_shift(zbar, inv), sgn)), _scale(_shift(prod, inv), sgn), -1)


def box_product(z, d, n):
    """{exponent tuple: coefficient} of Z bar(Z) prod_{i<n} (1 - t_i^-1)."""
    prod = _mul(z, _bar(z))
    for i in range(n):
        prod = _add(prod, _shift(prod, tuple(-1 if j == i else 0 for j in range(d))), -1)
    return prod


def vertex_half(pi, d):
    """{exponent tuple: coefficient} of Z - Z bar(Z) prod_{i<d} (1 - t_i^-1)."""
    z = character(pi, d)
    return _add(z, box_product(z, d, d - 1), -1)


def cy_reduce(a):
    """Replace every w by w - w_d (1,..,1) and merge coefficients."""
    out = {}
    for w, c in a.items():
        m = w[-1]
        v = tuple(x - m for x in w) if m else w
        s = out.get(v, 0) + c
        if s:
            out[v] = s
        else:
            del out[v]
    return out


def serialize(a):
    """The KClass.serialize form of a tuple-keyed class."""
    return [[list(w), a[w]] for w in sorted(a)]


# -- class-algebra vertex ---------------------------------------------------


def _unit(d, i, e):
    return tuple(e if j == i else 0 for j in range(d))


def class_box_product(z, n):
    """Z * bar(Z) * prod_{i<n} (1 - t_i^-1) for a KClass Z, by KClass algebra."""
    prod = z * z.bar()
    for i in range(n):
        prod = prod - prod.shift(_unit(z.dim, i, -1))
    return prod


def folded_box_product(z, n):
    """Packed terms and bound of -Z * bar(Z) * prod_{i<n} (1 - t_i^-1), one
    in-place pass per factor on every axis, zeros deleted."""
    d = z.dim
    bound = _checked(2 * z.bound + n)
    out = (-z * z.bar()).terms
    get = out.get
    for i in range(n):
        step = 1 << RADIX_BITS * (d - 1 - i)
        for k, c in zip(list(out), list(out.values())):
            k -= step
            s = get(k, 0) - c
            if s:
                out[k] = s
            else:
                del out[k]
    return out, bound


def expanded_blocks(blocks):
    """The KClass that a kclass.FlatBlocks stands for, with its bound: q
    times (1 - t_i^-1) for each flat axis i, by KClass algebra, plus the
    tail.  The materialized -v that the folds block by block replaced."""
    d = blocks.dim
    prod = KClass._packed(d, dict(blocks.q), 0)
    for i in blocks.flat:
        prod = prod - prod.shift(_unit(d, i, -1))
    prod = prod + KClass._packed(d, dict(blocks.tail), 0)
    return KClass._packed(d, prod.terms, blocks.bound)


def _unpack(code, k):
    """The vector of a code of k digits, on its own."""
    return struct.unpack(">%dh" % k, (code ^ _origin(k)).to_bytes(2 * k, "big"))


def expanded_cy_fold(a):
    """kclass.cy_fold code by code over an expanded KClass: (fixed, odd,
    sorted (w, net) pairs), the folded weights not told apart by block."""
    _checked(2 * a.bound)
    d = a.dim
    origin = _origin(d)
    ones = origin // BIAS
    folded = {}
    odd = fixed = 0
    for code, c in a.terms.items():
        code -= ((code & DIGIT) - BIAS) * ones
        if code < origin:
            code = 2 * origin - code
            odd ^= c & 1
        elif code == origin:
            fixed += c
            continue
        folded[code] = folded.get(code, 0) + c
    return fixed, odd, sorted((_unpack(k, d), e) for k, e in folded.items() if e)


def expanded_locus_fold(a):
    """kclass.locus_fold code by code over an expanded KClass: ({u: net}
    with the zero nets dropped, odd, sorted (r, net) pairs)."""
    _checked(2 * a.bound)
    k = a.dim - 2
    origin = _origin(k)
    ones = origin // BIAS
    crit = {}
    rest = {}
    odd = 0
    for code, c in a.terms.items():
        high = code >> RADIX_BITS
        m = (high & DIGIT) - BIAS
        r = (high >> RADIX_BITS) - m * ones
        if r == origin:
            u = (high & DIGIT) - (code & DIGIT)
            crit[u] = crit.get(u, 0) + c
            continue
        if r < origin:
            r = 2 * origin - r
            odd ^= c & 1
        rest[r] = rest.get(r, 0) + c
    crit = {u: e for u, e in crit.items() if e}
    return crit, odd, sorted((_unpack(r, k), e) for r, e in rest.items() if e)


def class_character(pi, d):
    """KClass of the boxes, each cell encoded as a tuple by the KClass
    constructor: the route that kclass.character's codes built from the
    heights replaced."""
    return KClass(d, {cell: 1 for cell in pi.cells()})


def class_active_fold(z, n, sign):
    """kclass._active_fold with sign * Z * bar(Z) built as three classes,
    (z * sign * z.bar()).terms, which its one double loop over the items
    of Z replaced: (terms, flat axes, bound), the bound checked first."""
    d = z.dim
    bound = _checked(2 * z.bound + n)
    origin = _origin(d)
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


def diagonal_fixed_part(a):
    """kclass.cy_fixed_part with the 2 * bound + 1 diagonal codes
    multiplied out and every one looked up in the tail and at both
    corners of every block, which its lookups of the origin and of the
    far corner origin - ONES + t_F replaced."""
    if isinstance(a, KClass):
        a = a.blocks
    ones = _ones(a.dim)
    diagonal = [BIAS * ones + m * ones for m in range(-a.bound, a.bound + 1)]
    top = sum(1 << RADIX_BITS * (a.dim - 1 - i) for i in a.flat)
    far, get = (-1) ** len(a.flat) if top else 0, a.q.get
    return sum(a.tail.get(k, 0) + get(k, 0) + far * get(k + top, 0) for k in diagonal)


def closed_form_c0(pi, d):
    """The fixed part c0 of the half vertex v = Z - Z * bar(Z) *
    prod_{i<d} (1 - t_i^-1) in closed form, from the boxes alone.  A box
    on the diagonal adds 1; an ordered pair of boxes (a, b), delta = a - b,
    whose t^delta / t_S reduces to 0 needs delta_i - delta_d = [i in S]
    for every i < d, and adds -(-1)^|S|."""
    boxes = list(pi.cells())
    c0 = sum(1 for b in boxes if len(set(b)) == 1)
    for a in boxes:
        for b in boxes:
            rest = [x - y - (a[-1] - b[-1]) for x, y in zip(a[:-1], b[:-1])]
            if all(r in (0, 1) for r in rest):
                c0 -= (-1) ** sum(rest)
    return c0


def class_vertex_half(pi, d):
    """KClass Z - Z * bar(Z) * prod_{i<d} (1 - t_i^-1)."""
    z = class_character(pi, d)
    return z - class_box_product(z, d - 1)


def eager_vertex(pi, d):
    """KClass V built at once from the class routes (class_character,
    class_active_fold), one update per flat axis (_double_flat), then Z
    and sgn * bar(Z) / (t_1..t_d) added term by term."""
    z = class_character(pi, d)
    terms, flat, bound = class_active_fold(z, d, -1)
    _double_flat(terms, flat, d)
    sgn = -1 if d % 2 else 1
    mirror = 2 * _origin(d) - _ones(d)
    add_into(terms, z.terms.items())
    add_into(terms, ((mirror - k, sgn * c) for k, c in z.terms.items()))
    return KClass._packed(d, terms, bound)


def class_vertex(pi, d):
    """KClass V = v + sgn * bar(Z) / (t_1..t_d) + (Z - v) / t_d, v the half vertex."""
    z = class_character(pi, d)
    v = class_vertex_half(pi, d)
    sgn = -1 if d % 2 else 1
    return v + sgn * z.bar().shift((-1,) * d) + (z - v).shift(_unit(d, d - 1, -1))


# -- bounded partition enumeration -------------------------------------------


def _slice_bound(bound, first):
    if bound is None:
        return None
    return {idx[1:]: h for idx, h in bound.items() if idx[0] == first}


def _meet(a, b):
    if a is None:
        return b
    if b is None:
        return a
    out = {}
    for idx, h in a.items():
        m = min(h, b.get(idx, 0))
        if m:
            out[idx] = m
    return out


def _gen_linear(size, cap, bound, pos):
    if size == 0:
        yield {}
        return
    top = min(size, cap)
    if bound is not None:
        top = min(top, bound.get((pos,), 0))
    for v in range(top, 0, -1):
        for rest in _gen_linear(size - v, v, bound, pos + 1):
            out = {(pos,): v}
            out.update(rest)
            yield out


def _gen_slices(arity, size, bound, prev, pos):
    if size == 0:
        yield {}
        return
    eff = _meet(prev, _slice_bound(bound, pos))
    for s in range(size, 0, -1):
        for top in _gen_heights(arity - 1, s, eff):
            for rest in _gen_slices(arity, size - s, bound, top, pos + 1):
                out = {(pos,) + idx: h for idx, h in top.items()}
                out.update(rest)
                yield out


def _gen_heights(arity, size, bound):
    if arity == 1:
        yield from _gen_linear(size, size, bound, 1)
    else:
        yield from _gen_slices(arity, size, bound, None, 1)


def bounded_partitions(arity, size, bound):
    """All arity-partitions of the size dominated entrywise by the height
    map bound (None: unbounded), sorted by key().  Slices the bound along
    the first axis and meets each slice with the previous slice of the
    partition."""
    found = [MultiPartition(arity, h) for h in _gen_heights(arity, size, bound)]
    found.sort(key=lambda p: p.key())
    return found


def size_bound_by_rounds(arity, size):
    """The height map bounding every arity-partition of the size, built
    one axis per round: each round extends every index tuple by one
    entry, so even size 1 costs time quadratic in the arity."""
    bound = {(): size}
    for _ in range(arity):
        bound = {idx + (i,): cap // i for idx, cap in bound.items() for i in range(1, cap + 1)}
    return bound


def validate_by_neighbours(arity, heights):
    """Raise ValueError unless heights ({index tuple: height}) is an
    arity-partition.  Checks the successor and the predecessor of every
    stored index on every axis, O(arity^2) per index."""
    for idx, h in heights.items():
        if len(idx) != arity:
            raise ValueError("index %r does not have arity %d" % (idx, arity))
        if any(i < 1 for i in idx):
            raise ValueError("indices must be positive: %r" % (idx,))
        if h < 1:
            raise ValueError("stored heights must be positive: %r -> %d" % (idx, h))
        for j in range(arity):
            succ = idx[:j] + (idx[j] + 1,) + idx[j + 1 :]
            if heights.get(succ, 0) > h:
                raise ValueError("not monotone at %r along axis %d" % (idx, j + 1))
            if idx[j] > 1:
                pred = idx[:j] + (idx[j] - 1,) + idx[j + 1 :]
                if heights.get(pred, 0) < h:
                    raise ValueError("not monotone at %r along axis %d" % (idx, j + 1))


# -- partition counts --------------------------------------------------------


def brute_force_downsets(arity, size):
    """Independent partition count: downward-closed box sets of the size.

    Enumerates subsets of the simplex of boxes with coordinate sum below
    the size and filters for closure under coordinate decrease.  Meant as
    a slow cross-check oracle for small inputs only.
    """
    dim = arity + 1
    if size == 0:
        return 1

    def boxes(prefix, remaining, axes):
        if axes == 0:
            yield prefix
            return
        for v in range(remaining + 1):
            yield from boxes(prefix + (v,), remaining - v, axes - 1)

    cells = list(boxes((), size - 1, dim))
    count = 0
    for subset in combinations(cells, size):
        chosen = set(subset)
        ok = True
        for c in subset:
            for j in range(dim):
                if c[j] and tuple(c[:j] + (c[j] - 1,) + c[j + 1 :]) not in chosen:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


# Number of n-partitions of size s for s <= 6, as a closed binomial form.
_SMALL_COUNT_ROWS = (
    (1,),
    (1,),
    (1, 1),
    (1, 2, 1),
    (1, 4, 4, 1),
    (1, 6, 11, 7, 1),
    (1, 10, 27, 28, 11, 1),
)


def count_by_binomial_formula(n, size):
    """Closed-form count of n-partitions of a size up to 6."""
    if size not in range(len(_SMALL_COUNT_ROWS)):
        raise ValueError("closed form only known here for sizes <= 6")
    total = 0
    for k, c in enumerate(_SMALL_COUNT_ROWS[size]):
        binom = 1
        for j in range(k):
            binom = binom * (n - j) // (j + 1)
        total += c * binom
    return total


# -- orbit representatives ---------------------------------------------------


def representatives_by_grouping(arity, size):
    """(canonical form, number of partitions with it) over every
    partition of the arity and size, sorted by key()."""
    groups = {}
    for pi in bounded_partitions(arity, size, None):
        canon = canonicalize_axes(pi)
        rep, count = groups.get(canon.key(), (canon, 0))
        groups[canon.key()] = (rep, count + 1)
    return [groups[k] for k in sorted(groups)]


# -- omega decompositions ----------------------------------------------------


def column_runs(heights):
    """Top occupied level per column base; columns are contiguous prefixes."""
    runs = {}
    for idx in heights:
        base, level = idx[:-1], idx[-1]
        if level > runs.get(base, 0):
            runs[base] = level
    return runs


def arity_one_omega(pi):
    """omega_c of a 1-partition in closed form: its one decomposition
    into height prefixes is forced by the successive differences
    h_i - h_{i+1}, so the weight is the product of their inverse
    factorials (1 for the empty partition)."""
    total = Fraction(1)
    for (i,), h in pi.heights.items():
        total /= factorial(h - pi.heights.get((i + 1,), 0))
    return total


def sub_partitions(arity, bound):
    """All nonempty arity-partitions dominated entrywise by the height map
    bound, in no particular order.

    Walks the cells of bound in sorted order, so the predecessors of a
    cell are decided before it, and gives each cell every height from
    min(bound, heights of its predecessors) down to 0.  A cell outside
    bound counts as height 0, so bound need not itself be closed toward
    the corner.
    """
    cells = [
        (c, bound[c], [c[:j] + (c[j] - 1,) + c[j + 1 :] for j in range(len(c)) if c[j] > 1])
        for c in sorted(bound)
    ]
    found = []

    def walk(i, heights):
        # each call places the next nonempty cell, so the recursion is at
        # most as deep as bound holds boxes
        if heights:
            found.append(MultiPartition(arity, heights, validate=False))
        for j in range(i, len(cells)):
            cell, top, preds = cells[j]
            for p in preds:
                top = min(top, heights.get(p, 0))
            for h in range(top, 0, -1):
                heights[cell] = h
                walk(j + 1, heights)
            heights.pop(cell, None)

    walk(0, {})
    return found


def unfloored_candidates(pi):
    """Every sub-partition of the column profile, descending by (size,
    key): the candidates before the must-hold floor."""
    out = sub_partitions(pi.arity - 1, column_runs(pi.heights))
    out.sort(key=lambda xi: (xi.size, xi.key()), reverse=True)
    return out


def _fits(xi, remainder):
    """Whether subtracting the binary array keeps the remainder admissible:
    every column of xi ends at a strict descent of the remainder."""
    for base, h in xi.heights.items():
        if remainder.get(base + (h,), 0) <= remainder.get(base + (h + 1,), 0):
            return False
    return True


def _subtract(xi, remainder):
    out = dict(remainder)
    for base, h in xi.heights.items():
        for level in range(1, h + 1):
            idx = base + (level,)
            v = out[idx] - 1
            if v:
                out[idx] = v
            else:
                del out[idx]
    return out


def unpruned_decompositions(pi):
    """omega.decompositions without the floor and the corner-count
    bounds: every unfloored candidate no larger than the remainder is
    tried, in the same order, so the bounded search must give this list,
    in this order."""
    if not pi.heights:
        return [{}]
    cands = unfloored_candidates(pi)
    results = []

    def search(remainder, start, stack):
        if not remainder:
            parts = {}
            for i in stack:
                key = cands[i].serialize()
                parts[key] = parts.get(key, 0) + 1
            results.append(parts)
            return
        left = sum(remainder.values())
        for i in range(start, len(cands)):
            xi = cands[i]
            if xi.size > left:
                continue
            if _fits(xi, remainder):
                stack.append(i)
                search(_subtract(xi, remainder), i, stack)
                stack.pop()

    search(dict(pi.heights), 0, [])
    return results



def first_part_omega(pi):
    """omega_c by its first part, with no decomposition search.

    h! omega_c(pi) counts the ordered decompositions of pi into h parts,
    h the corner height, so it is the sum over the parts P that can come
    first of (h - 1)! omega_c(pi - P), and omega_c of the empty partition
    is 1.  Memoized on the canonical form of each remainder, since
    permuting the axes permutes the parts."""
    return _first_part_omega(pi.arity, canonicalize_axes(pi).key())


@functools.cache
def _first_part_omega(arity, key):
    heights = {row[:-1]: row[-1] for row in key}
    if not heights:
        return Fraction(1)
    total = Fraction(0)
    for rem in _first_part_remainders(heights):
        total += first_part_omega(MultiPartition(arity, rem))
    return total / heights[(1,) * arity]


def _first_part_remainders(heights):
    """heights minus each part P that leaves a partition: P a non-empty
    down-set of the cells, which holds every successor y of a cell x of
    P with heights[y] == heights[x], since x would drop below y else.
    The cells go in sorted order, so the predecessors of a cell are
    decided before it."""
    cells = sorted(heights)
    out = []

    def walk(i, part):
        if i == len(cells):
            if part:
                rem = {c: heights[c] - (c in part) for c in cells}
                out.append({c: v for c, v in rem.items() if v})
            return
        c = cells[i]
        preds = [c[:j] + (x - 1,) + c[j + 1 :] for j, x in enumerate(c) if x > 1]
        if all(p in part for p in preds):
            walk(i + 1, part | {c})
        if not any(p in part and heights[p] == heights[c] for p in preds):
            walk(i + 1, part)

    walk(0, frozenset())
    return out

# -- per-partition series ----------------------------------------------------


def exp_identity_lhs(n, order):
    """Sum over every n-partition of omega_c * t^corner * q^size."""
    coeffs = [QPoly.one()]
    for s in range(1, order + 1):
        c = QPoly.zero()
        for pi in bounded_partitions(n, s, None):
            c = c + QPoly.const(omega_c(pi)).shift(pi.corner_height())
        coeffs.append(c)
    return TruncatedSeries(order, coeffs)


def euler_ratio_odd(pi, d):
    """Euler class of minus the vertex for odd d: a pure rational number.

    All form directions must cancel after the Calabi-Yau reduction; a
    survivor fails an assertion.
    """
    if d % 2 == 0:
        raise ValueError("odd dimension required")
    v = packed_vertex(pi, d)
    if key_verdict(v) == KEY_VIOLATED:
        raise ZeroWeightDenominator("fixed part of the vertex is positive")
    p = euler_class(-v)
    assert not p.factors, "forms survive in the Euler ratio of %s" % pi.serialize()
    return p.scalar


def z_odd(d, order):
    """Sum over every (d-1)-partition of euler_ratio_odd * q^size."""
    coeffs = [QPoly.one()]
    for n in range(1, order + 1):
        total = Fraction(0)
        for pi in bounded_partitions(d - 1, n, None):
            total += euler_ratio_odd(pi, d)
        coeffs.append(QPoly.const(total))
    return TruncatedSeries(order, coeffs)


# -- form products -------------------------------------------------------------


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


def times_raw_form(p, coeffs, ell_part, exponent):
    """p times one raw form (canonicalized here) with an exponent.

    The per-form fold the one-pass collector replaced: it copies the
    factors and folds the multiplier into the scalar form by form.  A
    zero form with positive exponent collapses the product to the zero
    class; with negative exponent it raises, because the Euler ratio it
    encodes is undefined.
    """
    if p.is_zero():
        return p
    norm = canonical_form(coeffs, ell_part)
    if norm is None:
        if exponent > 0:
            return FormProduct(0)
        raise ZeroWeightDenominator("zero weight with exponent %d" % exponent)
    form, g = norm
    factors = dict(p.factors)
    e = factors.get(form, 0) + exponent
    if e:
        factors[form] = e
    else:
        factors.pop(form, None)
    return FormProduct(p.scalar * Fraction(g) ** exponent, factors)


def fraction_evaluate(p, lams):
    """p at a parameter point, each form's value a Fraction multiplied in;
    the first zero form gives 0 (positive exponent) or raises, as does a
    form with an ell part, the first of the two in order ruling."""
    val = Fraction(p.scalar)
    for form, e in p.factors.items():
        if form[-1]:
            raise ValueError("form depends on ell; no value given")
        v = sum(Fraction(c) * x for c, x in zip(form[:-1], lams))
        if not v:
            if e > 0:
                return Fraction(0)
            raise DegenerateSamplePoint("form %r vanishes at sample" % (form,))
        val *= v**e
    return val


def reduced_euler_class(a, use_cy=True):
    """Euler class of a KClass from its cy_reduce, then the packed fold.

    The route that the one-pass euler_class replaced: the reduced class
    is built first, a code below the origin is folded onto its mirror
    with its coefficient's parity in the sign, the origin rules on the
    zero class, and each folded code is decoded on its own.
    """
    if not use_cy:
        return _collect((w, 0, c) for w, c in a.items())
    a = packed_cy_reduce(a)
    origin = _origin(a.dim)
    mirror = 2 * origin
    folded = {}
    odd = 0
    for code, c in a.terms.items():
        if code < origin:
            code = mirror - code
            odd ^= c & 1
        elif code == origin:
            if c > 0:
                return FormProduct(0)
            raise ZeroWeightDenominator("zero weight with exponent %d" % c)
        folded[code] = folded.get(code, 0) + c
    unpack = struct.Struct(">%dh" % a.dim).unpack
    exps = {}
    num = den = 1
    for code, e in folded.items():
        if not e:
            continue
        form = unpack((code ^ origin).to_bytes(2 * a.dim, "big"))
        g = gcd(*form)
        if g != 1:
            form = tuple(x // g for x in form)
            if e > 0:
                num *= g**e
            else:
                den *= g ** (-e)
        exps[form] = exps.get(form, 0) + e
    return FormProduct(Fraction(-num if odd else num, den), {f: e for f, e in exps.items() if e})


def collected_euler_class(a, use_cy=True):
    """Euler class of a KClass with every term decoded and collected.

    Each term of the (reduced) class is decoded to its first d-1
    coordinates (all d on the full torus) and canonicalized by the
    collector on its own, with its own gcd and sign.
    """
    if use_cy:
        a = packed_cy_reduce(a)
    k = a.dim - 1 if use_cy else a.dim
    return _collect((w[:k], 0, c) for w, c in a.items())


# -- specialization ------------------------------------------------------------


def collected_specialize(p):
    """forms.specialize in two steps: split off the critical forms, check
    their net exponent, then collect the restricted rest."""
    units = {}
    residual = []
    for form, e in p.factors.items():
        if all(c == form[0] for c in form[:-1]):
            units[form[0], form[-1]] = e
        else:
            residual.append(form)
    sigma_net = sum(units.values())
    if sigma_net < 0:
        raise ShapeMismatch("diagnostic pole instead of a polynomial")
    if sigma_net > 0:
        return QPoly.zero()
    rest = _collect(([c - f[-2] for c in f[:-2]], 0, p.factors[f]) for f in residual)
    if rest.factors:
        raise ShapeMismatch("diagnostic not_constant instead of a polynomial")
    top, bottom = QPoly.const(p.scalar * rest.scalar), QPoly.one()
    for unit, e in units.items():
        if e > 0:
            top = top * QPoly(unit) ** e
        else:
            bottom = bottom * QPoly(unit) ** (-e)
    value = top.divexact(bottom)
    if value is None:
        raise ShapeMismatch("diagnostic pole instead of a polynomial")
    return value


def _restrict(factors, units, exps):
    """The restriction of forms {form: exponent} in forms.specialize: a
    critical form (c, ..., c, ell_part) adds its exponent to units[c,
    ell_part]; every other form restricts to (c_i - c_{d-1})_{i <= d-2},
    negated when its first non-zero entry is negative, and is merged
    into exps.  Returns the multiplier as (numerator, denominator)."""
    pairs, odd = [], 0
    for form, e in factors.items():
        head = form[:-1]
        last = head[-1]
        if head.count(last) == len(head):
            units[last, form[-1]] = units.get((last, form[-1]), 0) + e
            continue
        rest = tuple(c - last for c in head[:-1])
        if rest < (0,) * len(rest):
            rest = tuple(-c for c in rest)
            odd ^= e & 1
        pairs.append((rest, e))
    return _merge_primitive(pairs, exps, odd)


def insertion_read_half_vertex(pi, d, nv):
    """forms._specialize_half_vertex with the insertion built: its forms
    restricted by _restrict, and every weight of nv = -v, the tail -Z
    included, by kclass.locus_fold, a critical weight with value u the
    unit (u, 0); the rest merged with the sign of the root."""
    e = _half_vertex_euler(nv, pi.size)
    if e.is_zero():
        return None
    taut = taut_factor(pi, d, ell_units=1)
    units, exps = {}, {}
    num, den = _restrict(taut.factors, units, exps)
    crit, odd, pairs = locus_fold(nv.blocks if isinstance(nv, KClass) else nv)
    for u, e_u in crit.items():
        if e_u:
            units[u, 0] = units.get((u, 0), 0) + e_u
    n, m = _merge_primitive(pairs, exps, odd ^ (e.scalar < 0))
    s = taut.scalar
    return _locus_value((s.numerator * num * n, s.denominator * den * m), units, exps)


def qpoly_locus_value(scalar, units, exps):
    """forms._locus_value with QPoly arithmetic: the top and the bottom
    are products of QPoly powers of the ell-units, and the value is the
    top times the scalar, a pair (numerator, denominator), divided
    exactly by the bottom."""
    scalar = Fraction(*scalar)
    sigma_net = sum(units.values())
    if sigma_net < 0:
        raise ShapeMismatch("diagnostic pole instead of a polynomial")
    if sigma_net > 0:
        return QPoly.zero()
    if any(exps.values()):
        raise ShapeMismatch("diagnostic not_constant instead of a polynomial")
    top = bottom = QPoly.one()
    for unit, e in units.items():
        if not unit[1]:
            scalar *= Fraction(unit[0]) ** e
        elif e > 0:
            top = top * QPoly(unit) ** e
        elif e < 0:
            bottom = bottom * QPoly(unit) ** (-e)
    value = (top * scalar).divexact(bottom)
    if value is None:
        raise ShapeMismatch("diagnostic pole instead of a polynomial")
    return value


def evaluate_on_locus(p, frees, ell):
    """Independent evaluation of a FormProduct on the specialization locus.

    Parametrizes lam_j = mu_j for j < d-1 and lam_{d-1} = s - sum(mu),
    so each form (c_1, ..., c_{d-1}, ell_part) becomes A + B*s with
    exact A, B; the product's limit at s = 0 is read off the net order
    in s.  This path shares nothing with specialize(): it is the
    cross-check oracle.  Points where a non-critical form vanishes are
    rejected.
    """
    if p.is_zero():
        return Fraction(0)
    frees = tuple(Fraction(x) for x in frees)
    total = sum(frees)
    val = p.scalar
    order = 0
    for form, e in p.factors.items():
        a, ell_part = form[:-1], form[-1]
        if len(a) != len(frees) + 1:
            raise ValueError(
                "form has %d parameters, expected %d free coordinates"
                % (len(a), len(a) - 1)
            )
        A = sum(c * x for c, x in zip(a, frees)) + a[-1] * (-total)
        B = Fraction(a[-1] + ell_part * ell)
        if A == 0:
            if any(c != a[0] for c in a):
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


def locus_value(pi, d, ell, frees):
    """Value of the insertion times e(-v) on the locus, built by hand.

    v is the tuple half vertex vertex_half(pi, d), reduced by cy_reduce,
    and the insertion is t_d^-ell times the character of the boxes.  The
    locus lam_1 + ... + lam_{d-1} = 0 is reached as s -> 0 along
    lam_j = mu_j (j <= d-2, mu = frees), lam_{d-1} = s - sum(mu) and
    lam_d = -s.  A reduced weight w (w_d = 0) of v with coefficient c
    contributes (A + B s)^-c with A = sum_j (w_j - w_{d-1}) mu_j and
    B = w_{d-1}; a box b contributes A(b) + (b_{d-1} - b_d + ell) s with
    A(b) = sum_j (b_j - b_{d-1}) mu_j.  A factor is critical when its A
    is identically zero; the limit is the product of the A of the
    others and the B of the critical ones, when their net exponent is
    zero; exponents are summed per absolute value before any power is
    taken.  The square root of the pipeline is +-e(-v), so this is the
    specialized value up to a sign that depends on pi and d only.  Uses
    nothing from dtvertex.forms.  A positive zero weight gives 0; a
    negative one, or a net pole, raises ZeroDivisionError; a sample on a
    non-critical factor raises DegenerateSamplePoint.
    """
    mu = list(frees)
    if len(mu) != d - 2:
        raise ValueError("expected %d free coordinates" % (d - 2))
    factors = [
        ([w[j] - w[d - 2] for j in range(d - 2)], w[d - 2], -c)
        for w, c in cy_reduce(vertex_half(pi, d)).items()
    ]
    factors += [
        ([b[j] - b[d - 2] for j in range(d - 2)], b[d - 2] - b[d - 1] + ell, 1)
        for b in pi.cells()
    ]
    powers = {}
    order = sign = 0
    for a, b, e in factors:
        if not any(a):
            if not b:
                if e > 0:
                    return Fraction(0)
                raise ZeroDivisionError("zero weight in the denominator")
            order += e
            x = Fraction(b)
        else:
            x = sum(c * m for c, m in zip(a, mu))
            if not x:
                raise DegenerateSamplePoint("sample lies on %r" % (a,))
        if x < 0:
            x = -x
            sign ^= e & 1
        powers[x] = powers.get(x, 0) + e
    if order > 0:
        return Fraction(0)
    if order < 0:
        raise ZeroDivisionError("pole on the specialization locus")
    val = Fraction(-1 if sign else 1)
    for x, e in powers.items():
        val *= Fraction(x) ** e
    return val


# -- cache fingerprint ---------------------------------------------------------


def repr_fingerprint(v):
    """The schema-3 fingerprint of a class: sha256 of the repr of dim and
    the sorted (code, coefficient) pairs, every code written in decimal."""
    return hashlib.sha256(repr((v.dim, sorted(v.terms.items()))).encode()).hexdigest()


def expanded_fingerprint(v):
    """The schema-4 fingerprint of a class: sha256 of b"dim:count:", every
    code in increasing order as 2 * dim big-endian bytes, and the repr of
    the coefficient list in that order."""
    keys = sorted(v.terms)
    h = hashlib.sha256(b"%d:%d:" % (v.dim, len(keys)))
    h.update(b"".join([k.to_bytes(2 * v.dim, "big") for k in keys]))
    h.update(repr([v.terms[k] for k in keys]).encode())
    return h.hexdigest()


# -- test-only helpers -----------------------------------------------------------


def orbit(pi):
    """All partitions in the axis-permutation orbit, sorted.

    Sends the active axes (those with an index above 1) to every ordered
    choice of distinct positions; inactive axes carry index 1 in every
    entry, so this reaches each member.
    """
    n = pi.arity
    active = [j for j in range(n) if any(idx[j] > 1 for idx in pi.heights)]
    keys = set()
    for targets in permutations(range(n), len(active)):
        rows = []
        for idx, h in pi.heights.items():
            t = [1] * n
            for a, p in zip(active, targets):
                t[p] = idx[a]
            rows.append(tuple(t) + (h,))
        keys.add(tuple(sorted(rows)))
    members = [
        MultiPartition.from_entries(n, [list(r) for r in rows], validate=False)
        for rows in keys
    ]
    members.sort(key=lambda p: p.key())
    return members


def contains_cell(pi, cell):
    """Whether the 0-based box lies in the staircase of pi."""
    if len(cell) != pi.arity + 1:
        raise ArityMismatch("cell %r does not match arity %d" % (cell, pi.arity))
    return cell[-1] + 1 <= pi.heights.get(tuple(b + 1 for b in cell[:-1]), 0)


def binary_rep_contains(xi, cell):
    """0/1 entry of the binary array of xi at a 1-based (arity+1)-tuple.

    The binary array of an n-partition xi is the indicator of its
    staircase: 1 exactly when the last index does not exceed the height
    of xi over the first n indices.
    """
    cell = tuple(cell)
    if len(cell) != xi.arity + 1:
        raise ArityMismatch("cell %r does not match arity %d" % (cell, xi.arity))
    if any(i < 1 for i in cell):
        raise ValueError("binary representation uses 1-based indices: %r" % (cell,))
    return 1 if cell[-1] <= xi.heights.get(cell[:-1], 0) else 0


def flipped_orientation(orientation, keys):
    """A new orientation with the signs of keys negated."""
    signs = dict(orientation)
    for k in keys:
        signs[k] = -signs[k]
    return signs


def series_pow(series, e):
    """Power with an arbitrary rational exponent, via exp(e * log)."""
    if isinstance(e, int) and e >= 0:
        result = TruncatedSeries.one(series.order)
        for _ in range(e):
            result = result * series
        return result
    return (series.log() * Fraction(e)).exp()


def series_table(series, var="ell"):
    """One line per q-order: the coefficient rendered in var."""
    return "\n".join(
        "q^%-2d  %s" % (n, c.render(var)) for n, c in enumerate(series.coeffs)
    )


def validate_check_args(kind, d, order, jobs, ell, orientation, bundle):
    """Raise the usage error of cmd_check's chain of checks, if any."""
    if kind == "odd" and (d < 3 or d % 2 == 0):
        raise ValueError("kind 'odd' needs an odd dimension >= 3")
    if kind in ("fourk", "omega", "uniqueness") and (d < 4 or d % 4):
        raise ValueError("kind '%s' needs a dimension divisible by 4" % kind)
    # the declared difference: the two rules the kind table added
    if kind == "keyconj" and d < 2 or kind == "remfail" and (d < 3 or d % 4 == 2):
        raise ValueError("kind %r does not take dimension %d" % (kind, d))
    if jobs < 1:
        raise ValueError("--jobs must be at least 1, got %d" % jobs)
    if order < 1:
        raise ValueError("--order must be at least 1, got %d" % order)
    if kind != "fourk":
        for flag, value in (("--ell", ell), ("--orientation", orientation)):
            if value is not None:
                raise ValueError("%s is only read by kind 'fourk'" % flag)
    if bundle is not None and (kind != "remfail" or d % 4):
        raise ValueError(
            "--bundle is only read by kind 'remfail' with a dimension divisible by 4"
        )


def active_axes_by_scan(pi):
    return [j for j in range(pi.arity) if any(idx[j] > 1 for idx in pi.heights)]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dtvertex",
        description="Exact vertex computations for zero-dimensional counts on affine space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list partitions of a given arity and size")
    p_enum.add_argument("arity", type=int)
    p_enum.add_argument("size", type=int)
    p_enum.add_argument("--canonical", action="store_true",
                        help="one representative per axis-permutation orbit")
    p_enum.add_argument("--format", choices=["json", "table", "csv"], default="json")

    p_check = sub.add_parser("check", help="run one of the identity checks")
    p_check.add_argument(
        "kind", choices=["odd", "fourk", "keyconj", "remfail", "omega", "uniqueness"]
    )
    p_check.add_argument("--dimension", "-d", type=int, required=True)
    p_check.add_argument("--order", "-n", type=int, required=True)
    p_check.add_argument("--ell", default=None,
                         help="fourk: integer, range a..b, or 'symbolic' (the default)")
    p_check.add_argument("--orientation", dest="orientation_file", default=None,
                         help="fourk: JSON file of signs; default positive-omega")
    p_check.add_argument("--bundle", default=None,
                         help="remfail with d = 0 mod 4: comma-separated twist "
                              "(default 1,0,...,0)")
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--jobs", type=int, default=1)
    p_check.add_argument("--cache", default=None)
    p_check.add_argument("--format", choices=["json", "table", "csv"], default="json")

    p_compact = sub.add_parser("cache-compact", help="rewrite the cache keeping last records")
    p_compact.add_argument("--cache", default=None)
    return parser


def _fraction_trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple([c if isinstance(c, Fraction) else Fraction(c) for c in coeffs[:n]])


class FractionQPoly:
    """ratpoly.QPoly as a tuple of Fraction coefficients, each sum and
    product built coefficient by coefficient in Fraction arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _fraction_trim(tuple(coeffs))

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
        if isinstance(other, FractionQPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == FractionQPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionQPoly.const(other)
        if not isinstance(other, FractionQPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionQPoly(tuple(self.coefficient(i) + other.coefficient(i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return FractionQPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionQPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionQPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, FractionQPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return FractionQPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionQPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = FractionQPoly.one()
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
        return FractionQPoly((Fraction(0),) * k + self.coeffs)

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
        return FractionQPoly(q), FractionQPoly(rem)

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
        return "FractionQPoly(%s)" % (self.render(),)

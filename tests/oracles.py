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
- The packed box product with one in-place pass per factor on every
  axis, which the single update per flat axis replaced for the axes
  that no box leaves.
- The materialized -v of the half vertex, and the Calabi-Yau and locus
  folds that read it code by code, which the folds of kclass replaced:
  they take -v as the blocks of kclass.FlatBlocks, one per term of the
  product over the active axes, and decode each interior code of a
  block without a merge.
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
  binomial form for sizes up to 6.
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
- Small helpers that only tests use: axis-permutation orbits, staircase
  membership, orientation flips, series powers and tables.
"""

import hashlib
import struct
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from dtvertex import (
    ArityMismatch,
    DegenerateSamplePoint,
    FormProduct,
    KClass,
    MultiPartition,
    OrientationAssignment,
    QPoly,
    ShapeMismatch,
    TruncatedSeries,
    ZeroWeightDenominator,
    canonicalize_axes,
    omega_c,
)
from dtvertex.forms import _collect, euler_class
from dtvertex.kclass import (
    BIAS,
    DIGIT,
    KEY_VIOLATED,
    RADIX_BITS,
    _checked,
    _origin,
    key_verdict,
)
from dtvertex.kclass import cy_reduce as packed_cy_reduce
from dtvertex.kclass import character as packed_character
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


def class_vertex_half(pi, d):
    """KClass Z - Z * bar(Z) * prod_{i<d} (1 - t_i^-1)."""
    z = packed_character(pi, d)
    return z - class_box_product(z, d - 1)


def class_vertex(pi, d):
    """KClass V = v + sgn * bar(Z) / (t_1..t_d) + (Z - v) / t_d, v the half vertex."""
    z = packed_character(pi, d)
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
        raise ZeroWeightDenominator(
            "fixed part of the vertex is positive", partition=pi.serialize()
        )
    p = euler_class(-v, use_cy=True)
    assert p.is_scalar(), "forms survive in the Euler ratio of %s" % pi.serialize()
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


def fraction_evaluate(p, lams, ell=None):
    """p at a parameter point, each form's value a Fraction multiplied in;
    the first zero form gives 0 (positive exponent) or raises."""
    val = Fraction(p.scalar)
    for form, e in p.factors.items():
        v = sum(Fraction(c) * x for c, x in zip(form[:-1], lams))
        if form[-1]:
            if ell is None:
                raise ValueError("form depends on ell; no value given")
            v += form[-1] * Fraction(ell) * sum(lams)
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
    return _collect((w, 0, c) for w, c in a.items(a.dim - 1 if use_cy else None))


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


def qpoly_locus_value(scalar, units, exps):
    """forms._locus_value with QPoly arithmetic: the top and the bottom
    are products of QPoly powers of the ell-units, and the value is the
    top times the scalar divided exactly by the bottom."""
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
    return cell[-1] + 1 <= pi.height_at(tuple(b + 1 for b in cell[:-1]))


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
    return 1 if cell[-1] <= xi.height_at(cell[:-1]) else 0


def sign_for(orientation, key):
    return orientation.signs[key]


def flipped_orientation(orientation, keys):
    """A new explicit assignment with the signs of keys negated."""
    signs = dict(orientation.signs)
    for k in keys:
        signs[k] = -signs[k]
    return OrientationAssignment(signs, "explicit")


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

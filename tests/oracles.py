"""Slow, independent reference implementations that the tests compare
the package against.

- The tuple-keyed vertex and its reduction, which the packed-integer
  KClass replaced: exponent vectors are plain tuples and every class is
  a {tuple: coefficient} dict.  They are slow (hash collisions between
  -1 and -2 entries make large dicts crawl) but independent of the
  packed encoding.
- The bounded partition enumeration: slices a bounding height map along
  the first axis and meets each slice with the partition's previous
  slice, one size at a time.  It checks omega's candidate lists.
- Two partition counts: brute-force down-sets of boxes and a closed
  binomial form for sizes up to 6.
"""

from itertools import combinations

from dtvertex import MultiPartition


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


def vertex_half(pi, d):
    """{exponent tuple: coefficient} of Z - Z bar(Z) prod_{i<d} (1 - t_i^-1)."""
    z = character(pi, d)
    prod = _mul(z, _bar(z))
    for i in range(d - 1):
        prod = _add(prod, _shift(prod, tuple(-1 if j == i else 0 for j in range(d))), -1)
    return _add(z, prod, -1)


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

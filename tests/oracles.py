"""Tuple-keyed reference implementations of the vertex and its reduction.

These are the straightforward routes that the packed-integer KClass
replaced: exponent vectors are plain tuples and every class is a
{tuple: coefficient} dict.  They are slow (hash collisions between -1
and -2 entries make large dicts crawl) but independent of the packed
encoding, so the tests compare the two.
"""


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

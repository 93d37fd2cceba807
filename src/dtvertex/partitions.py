"""Higher-dimensional partitions: representation, enumeration, symmetry.

An n-partition is a finitely supported array of positive integers
pi[i_1,...,i_n] (indices 1-based) that is non-increasing along every
axis.  1-partitions are ordinary partitions, 2-partitions plane
partitions, 3-partitions solid partitions.  An (d-1)-partition labels a
monomial ideal in d variables: the box stack of height pi[i] sitting
over the base cell i, stacked along the d-th coordinate axis.

Enumeration is one walk over the cells of a bounding height map,
giving each cell every height its predecessors allow.  Bounded by what
a partition of the size can reach, it lists all partitions of that
size; bounded by a partition, it lists the sub-partitions that omega
decomposes into.

Permuting the n base axes groups the partitions into orbits.  A
partition of size s has an index above 1 on at most s - 1 of its axes,
and only the star (the corner plus one box on each of s - 1 axes) uses
all of them, so with m = max(1, s - 2) the orbit representatives of
any arity above m are those of arity m padded with index 1, plus the
star.  Counts are sums of orbit sizes over
the representatives, so counting builds no partition of a high arity.
"""

from __future__ import annotations

import functools
from itertools import permutations
from math import comb



class MultiPartition:
    """An n-partition stored as a sparse map from index tuples to heights."""

    __slots__ = ("arity", "heights", "_key", "_serial")

    def __init__(self, arity, heights=None, validate=True):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.heights = {tuple(k): int(v) for k, v in (heights or {}).items() if v}
        self._key = tuple(sorted(idx + (h,) for idx, h in self.heights.items()))
        self._serial = None
        if validate:
            self._validate()

    @classmethod
    def from_entries(cls, arity, entries, validate=True):
        """Build from [i_1,...,i_n,height] rows."""
        return cls(arity, {tuple(row[:-1]): row[-1] for row in entries}, validate)

    def _validate(self):
        """Check arity, positivity and monotonicity of the stored heights.

        A cell that exceeds its successor along an axis is the
        predecessor check of that successor, so only predecessors are
        checked, and only along the axes where the index is above 1.
        """
        n = self.arity
        heights = self.heights
        for idx, h in heights.items():
            if len(idx) != n:
                raise ValueError("index %r does not have arity %d" % (idx, n))
            if min(idx) < 1:
                raise ValueError("indices must be positive: %r" % (idx,))
            if h < 1:
                raise ValueError("stored heights must be positive: %r -> %d" % (idx, h))
            for j, i in enumerate(idx):
                if i > 1 and heights.get(idx[:j] + (i - 1,) + idx[j + 1 :], 0) < h:
                    raise ValueError("not monotone at %r along axis %d" % (idx, j + 1))

    # -- basic queries ----------------------------------------------------

    @property
    def size(self):
        return sum(self.heights.values())

    def is_empty(self):
        return not self.heights

    def height_at(self, idx):
        return self.heights.get(tuple(idx), 0)

    def corner_height(self):
        """Height over the base corner cell (0 for the empty partition)."""
        return self.heights.get((1,) * self.arity, 0)

    def key(self):
        """Rows (i_1,...,i_n,height), sorted lexicographically: the
        hashable canonical flattening and the deterministic total order."""
        return self._key

    def serialize(self):
        """Compact string form of key(); used as cache and report key.

        The bytes of json.dumps(rows, separators=(",", ":")), joined
        straight from the int rows.  Written on the first call and kept,
        since a partition is never changed after it is built.
        """
        if self._serial is None:
            rows = ["[%s]" % ",".join(map(str, e)) for e in self._key]
            self._serial = "[%s]" % ",".join(rows)
        return self._serial

    def to_json_obj(self):
        return {"arity": self.arity, "entries": [list(e) for e in self._key]}

    @classmethod
    def from_json_obj(cls, obj):
        return cls.from_entries(obj["arity"], obj["entries"])

    def cells(self):
        """0-based boxes (b_1,...,b_{n+1}) of the associated staircase."""
        for idx, h in sorted(self.heights.items()):
            base = tuple(i - 1 for i in idx)
            for m in range(h):
                yield base + (m,)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPartition)
            and self.arity == other.arity
            and self._key == other._key
        )

    def __hash__(self):
        return hash((self.arity, self._key))

    def __repr__(self):
        return "MultiPartition(%d, %s)" % (self.arity, self.serialize())


# -- enumeration -----------------------------------------------------------


def _dominated_heights(bound, budget):
    """Height maps of the nonempty partitions dominated entrywise by bound
    whose size is at most budget.

    Walks the cells of bound in sorted order, so the predecessors of a
    cell are decided before it, and gives each cell every height from
    min(bound, budget left, heights of its predecessors) down to 0.  A
    cell outside bound counts as height 0, so bound need not itself be
    closed toward the corner.
    """
    cells = [
        (c, bound[c], [c[:j] + (c[j] - 1,) + c[j + 1 :] for j in range(len(c)) if c[j] > 1])
        for c in sorted(bound)
    ]
    found = []
    _walk_cells(cells, 0, budget, {}, found)
    return found


def _walk_cells(cells, i, left, heights, found):
    """Append to found heights, if nonempty, and every extension of it by
    boxes on cells[i:].  Each call places the next nonempty cell, so the
    recursion is at most budget deep however many cells bound has."""
    if heights:
        found.append(dict(heights))
    if left == 0:
        return
    for j in range(i, len(cells)):
        cell, top, preds = cells[j]
        top = min(top, left)
        for p in preds:
            top = min(top, heights.get(p, 0))
        for h in range(top, 0, -1):
            heights[cell] = h
            _walk_cells(cells, j + 1, left - h, heights, found)
        heights.pop(cell, None)


def _size_bound(arity, size):
    """The height map bounding every arity-partition of the size.

    A box over the cell idx needs all prod(idx) cells below it, so only
    cells with prod(idx) <= size hold boxes, at most size // prod(idx).
    Such a cell has an index above 1 on at most log2(size) axes; those
    are chosen in increasing axis order and each index tuple is built
    once, so the cost is linear in the arity per cell.
    """
    bound = {}

    def place(first, prod, raised):
        idx = [1] * arity
        for j, i in raised:
            idx[j] = i
        cap = size // prod
        bound[tuple(idx)] = cap
        if cap > 1:
            for j in range(first, arity):
                for i in range(2, cap + 1):
                    place(j + 1, prod * i, raised + ((j, i),))

    place(0, 1, ())
    return bound


def enumerate_partitions(arity, size):
    """All arity-partitions of the given size, sorted by key()."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if size < 0:
        raise ValueError("size must be >= 0")
    if size == 0:
        return [MultiPartition(arity)]
    found = [
        MultiPartition(arity, h, validate=False)
        for h in _dominated_heights(_size_bound(arity, size), size)
        if sum(h.values()) == size
    ]
    found.sort(key=lambda p: p.key())
    return found


def sub_partitions(arity, bound):
    """All nonempty arity-partitions dominated entrywise by the height map
    bound, in no particular order."""
    return [
        MultiPartition(arity, h, validate=False)
        for h in _dominated_heights(bound, sum(bound.values()))
    ]


def count_partitions(arity, max_size):
    """Counts of arity-partitions of sizes 0..max_size.

    Size 0 holds the empty partition alone; each larger count is the sum
    of the orbit sizes of canonical_representatives, so above arity
    size - 2 no partition of the given arity is enumerated.
    """
    if max_size < 0:
        return []
    return [1] + [
        sum(orbit for _, orbit in canonical_representatives(arity, s))
        for s in range(1, max_size + 1)
    ]


# -- axis permutation symmetry ---------------------------------------------


def _active_axes(pi):
    n = pi.arity
    return [j for j in range(n) if any(idx[j] > 1 for idx in pi.heights)]


def _relabel_entries(pi, placement):
    """Entries after sending active axis a to position placement[a] (0-based).

    Inactive axes carry index 1 in every entry, so the result does not
    depend on where they land.
    """
    n = pi.arity
    rows = []
    for idx, h in pi.heights.items():
        t = [1] * n
        for a, p in placement.items():
            t[p] = idx[a]
        rows.append(tuple(t) + (h,))
    rows.sort()
    return tuple(rows)


def _prefix_placements(pi):
    """Placements of the active axes onto the first positions only.

    Moving an active axis earlier past an inactive one never decreases
    any entry row, so the canonical (greatest) relabeling is always
    attained with the active axes packed into a prefix; this cuts the
    search from n-permutations of k down to k!.
    """
    active = _active_axes(pi)
    for order in permutations(range(len(active))):
        yield dict(zip(active, order))


def canonicalize_axes(pi):
    """Canonical representative of the axis-permutation orbit.

    Only the first n coordinate axes are permuted; the stacking
    direction is fixed.  Canonical means the greatest key()
    sequence, which concentrates boxes on the earliest axes (the orbit
    of a single off-axis box canonicalizes to the first axis).
    Idempotent.
    """
    best = max(_relabel_entries(pi, placement) for placement in _prefix_placements(pi))
    return MultiPartition.from_entries(pi.arity, [list(r) for r in best], validate=False)


def orbit_size(pi):
    """Number of distinct partitions in the axis-permutation orbit.

    The relabeled entries depend only on where the k active axes go and
    in which order, and distinct position sets give distinct entries, so
    the orbit has size n!/(n-k)! divided by the number of prefix
    placements realizing the canonical form.
    """
    n = pi.arity
    active = _active_axes(pi)
    k = len(active)
    target = canonicalize_axes(pi).key()
    stab = sum(1 for pl in _prefix_placements(pi) if _relabel_entries(pi, pl) == target)
    return _falling(n, k) // stab


def _falling(x, k):
    """The falling factorial x (x-1) ... (x-k+1)."""
    out = 1
    for j in range(k):
        out *= x - j
    return out


@functools.cache
def canonical_representatives(arity, size):
    """(representative, orbit size) pairs covering all partitions of the
    size, sorted by the representatives' key().

    An active axis (one along which some index exceeds 1) puts its own
    cell next to the corner, so a partition of the size s has at most
    s - 1 of them, and its canonical form packs them into a prefix.
    Only the star -- the corner plus one box on each of s - 1 axes --
    has s - 1; every other partition has at most m = max(1, s - 2).
    Above arity m the representatives are therefore those of arity m
    with index 1 appended on the remaining axes, in the same order
    (padding changes no comparison between rows), plus the star for
    s >= 3, inserted in key() order.  A representative with k active
    axes and stab prefix placements fixing it has an orbit of
    (n)_k / stab members at any arity n (see orbit_size), so padding
    multiplies its orbit size by the falling-factorial ratio
    (arity)_k / (m)_k, and the star, fixed by all (s - 1)! placements,
    has (arity)_(s-1) / (s - 1)! = C(arity, s - 1).  Only arity m and
    below group the full enumeration by canonical form.
    Cached per (arity, size), so the result is a tuple.
    """
    base = max(1, size - 2)
    if arity > base:
        pad = (1,) * (arity - base)
        out = []
        for rep, orbit in canonical_representatives(base, size):
            k = len(_active_axes(rep))
            heights = {idx + pad: h for idx, h in rep.heights.items()}
            out.append((
                MultiPartition(arity, heights, validate=False),
                orbit * _falling(arity, k) // _falling(base, k),
            ))
        if size >= 3:
            k = size - 1
            star = {(1,) * arity: 1}
            star.update((tuple(2 if j == i else 1 for j in range(arity)), 1) for i in range(k))
            out.append((
                MultiPartition(arity, star, validate=False),
                comb(arity, k),
            ))
            out.sort(key=lambda pair: pair[0].key())
        return tuple(out)
    groups = {}
    for pi in enumerate_partitions(arity, size):
        canon = canonicalize_axes(pi)
        k = canon.key()
        if k in groups:
            groups[k][1] += 1
        else:
            groups[k] = [canon, 1]
    return tuple((rep, cnt) for rep, cnt in (groups[k] for k in sorted(groups)))

"""Higher-dimensional partitions: representation, enumeration, symmetry.

An n-partition is a finitely supported array of positive integers
pi[i_1,...,i_n] (indices 1-based) that is non-increasing along every
axis.  1-partitions are ordinary partitions, 2-partitions plane
partitions, 3-partitions solid partitions.  An (d-1)-partition labels a
monomial ideal in d variables: the box stack of height pi[i] sitting
over the base cell i, stacked along the d-th coordinate axis.

Permuting the n base axes groups the partitions into orbits, each
represented by its member of greatest key().  The representatives of
size s grow from those of size s - 1 by one box; removing a removable
box from any partition leaves a member of a smaller orbit, so every
orbit is reached.  A partition of size s has an index above 1 on at
most s - 1 of its axes, so with m = max(1, s - 1) the representatives
of any arity above m are those of arity m padded with index 1.

The partitions of a size are the members of the representatives'
orbits, listed orbit by orbit, and their count is the sum of the orbit
sizes.
"""

from __future__ import annotations

import functools
from bisect import bisect
from itertools import combinations, permutations
from math import perm
from operator import itemgetter



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


def enumerate_partitions(arity, size):
    """All arity-partitions of the given size, sorted by key(): the
    members of the orbit of each canonical representative."""
    found = [pi for rep, _ in canonical_representatives(arity, size) for pi in _orbit(rep)]
    found.sort(key=lambda p: p.key())
    return found


def count_partitions(arity, max_size, grown=None):
    """Counts of arity-partitions of sizes 0..max_size.

    Size 0 holds the empty partition alone; each larger count is the sum
    of the orbit sizes of canonical_representatives, so no partition is
    enumerated.  grown, an arity at least arity whose representatives
    the caller grows anyway, is read instead: the representatives of
    arity are those of grown with at most arity active axes, and one
    with k of them has (n)_k / stab members at arity n (see _orbit).
    """
    if max_size < 0:
        return []
    grown = grown or arity
    return [1] + [
        sum(orbit * perm(arity, k) // perm(grown, k)
            for rep, orbit in canonical_representatives(grown, s)
            for k in [len(_active_axes(rep)) if grown > arity else 0])
        for s in range(1, max_size + 1)
    ]


# -- axis permutation symmetry ---------------------------------------------


def _active_axes(pi):
    """The axes with an index above 1: as heights do not increase along
    an axis, the j of each stored cell with 2 at j and 1 elsewhere."""
    n = pi.arity
    return sorted(c.index(2) for c in pi.heights if sum(c) == n + 1)


def _greatest_rows(rows, active, arity):
    """The greatest relabeling of the key() rows of an arity-partition
    with indices above 1 only on the active axes, and the number of
    placements reaching it.  Moving an active axis earlier past an
    inactive one never decreases a row, so the k! placements onto the
    first k positions suffice; rows compare on those indices and the
    height and are padded with index 1 at the end.
    """
    if not active:
        return tuple(rows), 1
    best, stab = [], 0
    for order in permutations(active):
        relabeled = sorted(map(itemgetter(*order, arity), rows))
        if relabeled > best:
            best, stab = relabeled, 1
        elif relabeled == best:
            stab += 1
    pad = (1,) * (arity - len(active))
    return tuple(r[:-1] + pad + r[-1:] for r in best), stab


def canonicalize_axes(pi):
    """Canonical representative of the axis-permutation orbit.

    Only the first n coordinate axes are permuted; the stacking
    direction is fixed.  Canonical means the greatest key()
    sequence, which concentrates boxes on the earliest axes (the orbit
    of a single off-axis box canonicalizes to the first axis).
    Idempotent.
    """
    rows, _ = _greatest_rows(pi.key(), _active_axes(pi), pi.arity)
    return MultiPartition.from_entries(pi.arity, rows, validate=False)


def _orbit(rep):
    """The members of the axis-permutation orbit of a canonical rep.

    Its k active axes form a prefix.  Each distinct relabeling of them
    (k!/stab of the k! orders) is placed on each k-subset of the axes,
    and distinct subsets give distinct members, so the orbit has
    n!/(n-k)!/stab members.
    """
    n, rows = rep.arity, rep.key()
    k = len(_active_axes(rep))
    if not k:
        return [rep]
    shapes = {frozenset(map(itemgetter(*order, n), rows)) for order in permutations(range(k))}
    out = []
    for axes in combinations(range(n), k):
        for shape in shapes:
            heights = {}
            for row in shape:
                idx = [1] * n
                for j, i in zip(axes, row):
                    idx[j] = i
                heights[tuple(idx)] = row[-1]
            out.append(MultiPartition(n, heights, validate=False))
    return out


def _children(pi):
    """(key() rows, number of active axes) of each partition that is the
    canonical pi plus one box: a raised column whose predecessors stand
    higher, or an opened cell whose predecessors are all present.  The
    axes past the k active ones of pi are interchangeable, so cells are
    opened only along the first k + 1.
    """
    n, heights, rows = pi.arity, pi.heights, pi.key()
    k = len(_active_axes(pi))
    axes = range(min(k + 1, n))

    def preds(c):
        return [c[:j] + (c[j] - 1,) + c[j + 1 :] for j in axes if c[j] > 1]

    for i, row in enumerate(rows):
        if all(heights.get(p, 0) > row[-1] for p in preds(row[:-1])):
            yield rows[:i] + (row[:-1] + (row[-1] + 1,),) + rows[i + 1 :], k
    cells = {(1,) * n}.union(c[:j] + (c[j] + 1,) + c[j + 1 :] for c in heights for j in axes)
    for c in cells - heights.keys():
        if all(p in heights for p in preds(c)):
            i = bisect(rows, c + (1,))
            yield rows[:i] + (c + (1,),) + rows[i:], k + (k < n and c[k] > 1)


@functools.cache
def canonical_representatives(arity, size):
    """(representative, orbit size) pairs covering all partitions of the
    size, sorted by the representatives' key(); cached, so a tuple.

    A partition of size s has at most m = max(1, s - 1) active axes
    (axes with an index above 1), packed into a prefix when canonical.
    Above arity m the representatives are those of arity m padded with
    index 1, in the same order, and one with k active axes has an orbit
    of (n)_k / stab members at arity n (see _orbit), so padding
    multiplies its orbit size by (arity)_k / (m)_k.

    At arity m and below they grow from size s - 1.  Removing a
    removable box from a partition P leaves g.R for a representative R
    and an axis permutation g, so g^-1.P is R plus one box: each
    distinct child of each R (see _children) is canonicalized once.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if size < 0:
        raise ValueError("size must be >= 0")
    if size == 0:
        return ((MultiPartition(arity), 1),)
    base = max(1, size - 1)
    if arity > base:
        pad = (1,) * (arity - base)
        out = []
        for rep, orbit in canonical_representatives(base, size):
            k = len(_active_axes(rep))
            heights = {idx + pad: h for idx, h in rep.heights.items()}
            out.append((MultiPartition(arity, heights, validate=False),
                        orbit * perm(arity, k) // perm(base, k)))
        return tuple(out)
    orbits, seen = {}, set()
    for parent, _ in canonical_representatives(arity, size - 1):
        for rows, k in _children(parent):
            if rows not in seen:
                canon, stab = _greatest_rows(rows, range(k), arity)
                seen.update((rows, canon))
                orbits.setdefault(canon, perm(arity, k) // stab)
    return tuple(
        (MultiPartition.from_entries(arity, rows, validate=False), orbits[rows])
        for rows in sorted(orbits)
    )

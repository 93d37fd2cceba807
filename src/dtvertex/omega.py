"""Combinatorial partition weights via multiset decompositions.

An (n+1)-partition's height array can be written as a non-negative
integer combination of binary arrays of n-partitions.  The weight
omega_c sums 1/prod(multiplicities!) over all such decompositions and
conjecturally matches the geometric weight extracted by the Euler-class
pipeline; `check omega` compares the two row by row.

Every part covers the corner cell once, so a decomposition has h parts,
h the corner height, and a cell where the height array equals h lies in
every part.  The candidate parts are the n-partitions between that
must-hold floor and the column profile.  One search over them serves
decompositions, which serializes the parts it finds, and omega_c, which
sums integer weights over h!; both re-verify every decomposition
against the cell sums.

Multisets of nonempty n-partitions are exactly the terms of
exp(t (M_n - 1)), with t counting the parts.  So the identity sum over
(n+1)-partitions of omega_c t^h q^|pi| = exp(t (M_n - 1)) holds exactly
when the decomposition search finds every decomposition: it checks the
search, not omega = omega_c.  Its left side is summed over orbit
representatives weighted by orbit size, since omega_c and the corner
height are invariant under permutations of the base axes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .errors import DTVertexError
from .partitions import MultiPartition, canonical_representatives
from .ratpoly import QPoly
from .series import TruncatedSeries, m_series


def _candidates(pi):
    """The candidate parts as (size, rows, columns) tuples: rows as in
    key(), columns the (base, height) pairs.

    A part's height at base b lies between floor(b), the number of levels
    of column b at the corner height, and runs(b), its top level; floor
    is a down-set under runs.  One walk over the bases in sorted order,
    predecessors first, gives each base every height from min(runs,
    heights of its predecessors) down to its floor; a base whose floor
    is its run keeps it.  Sorted by (size, rows) descending: largest
    first so dead branches die early, and the fixed order makes the
    multiset search duplicate-free.
    """
    h = pi.corner_height()
    runs, floor = {}, {}
    for idx, v in pi.heights.items():
        base, level = idx[:-1], idx[-1]
        runs[base] = max(runs.get(base, 0), level)
        if v == h:
            floor[base] = max(floor.get(base, 0), level)
    bases = sorted(runs)
    pos = {b: i for i, b in enumerate(bases)}
    xi = [runs[b] for b in bases]
    free = [
        (i, runs[b], low, [pos[b[:j] + (c - 1,) + b[j + 1 :]] for j, c in enumerate(b) if c > 1])
        for i, b in enumerate(bases)
        if (low := floor.get(b, 0)) < runs[b]
    ]
    out = []

    def walk(j):
        if j == len(free):
            cols = tuple((b, t) for b, t in zip(bases, xi) if t)
            out.append((sum(xi), tuple(b + (t,) for b, t in cols), cols))
            return
        i, cap, low, preds = free[j]
        for p in preds:
            cap = min(cap, xi[p])
        for t in range(cap, low - 1, -1):
            xi[i] = t
            walk(j + 1)

    walk(0)
    out.sort(reverse=True)
    return out


def _cell_sums(parts):
    """Cell counts of a decomposition given as (columns, multiplicity)
    pairs: each distinct part's cells times its multiplicity."""
    total = {}
    for cols, m in parts:
        for base, h in cols:
            for level in range(1, h + 1):
                idx = base + (level,)
                total[idx] = total.get(idx, 0) + m
    return total


def _serialized(arity, parts):
    return {MultiPartition(arity, dict(cols), validate=False).serialize(): m for cols, m in parts}


def _search(pi):
    """Yield each decomposition of pi as its list of (columns, multiplicity)
    pairs, parts in candidate order; the empty pi has one, with no parts.

    Backtracking over the candidates in their fixed order, on the
    remainder as a list over the sorted cells of pi (the corner first)
    with a zero past the end for the cell above a full column.  A part
    fits when each of its columns ends at a strict descent of the
    remainder, which keeps it non-negative and non-increasing.  Every
    part covers the corner cell once, so k parts are left to place while
    the remainder holds k there: a candidate of size s ends the loop
    once s * k < left, since no later candidate is larger, and is
    skipped if s > left - k + 1, which would leave fewer than k - 1
    cells for the other k - 1 parts.  A result that fails
    re-verification against the cell-sum equation raises DTVertexError.
    """
    cands = _candidates(pi)
    cells = sorted(pi.heights)
    pos = {c: i for i, c in enumerate(cells)}
    end = len(cells)
    plan = [
        (
            size,
            [pos[b + (level,)] for b, t in cols for level in range(1, t + 1)],
            [(pos[b + (t,)], pos.get(b + (t + 1,), end)) for b, t in cols],
        )
        for size, _, cols in cands
    ]
    found, stack = [], []

    def search(rem, left, start):
        if not left:
            found.append(list(stack))
            return
        k = rem[0]
        for i in range(start, len(plan)):
            size, covered, tops = plan[i]
            if size * k < left:
                break
            if size > left - k + 1:
                continue
            if all(rem[top] > rem[above] for top, above in tops):
                nxt = rem[:]
                for c in covered:
                    nxt[c] -= 1
                stack.append(i)
                search(nxt, left - size, i)
                stack.pop()

    search([pi.heights[c] for c in cells] + [0], pi.size, 0)
    for idxs in found:
        parts = [(cands[i][2], m) for i, m in Counter(idxs).items()]
        if _cell_sums(parts) != pi.heights:
            dec = _serialized(pi.arity - 1, parts)
            raise DTVertexError("decomposition failed re-verification: %r" % (dec,))
        yield parts


def decompositions(pi):
    """All decompositions of the height array into binary arrays, each a
    dict {serialized part: multiplicity}; [{}] for the empty partition.
    """
    if pi.arity < 2:
        raise ValueError("decompositions need arity >= 2")
    return [_serialized(pi.arity - 1, parts) for parts in _search(pi)]


def omega_c(pi):
    """Combinatorial weight: sum of 1/prod(m!) over decompositions.

    The multiplicities of a decomposition add up to the corner height h,
    so each term is an integer over h!.
    """
    whole = factorial(pi.corner_height())
    terms = (whole // prod(factorial(m) for _, m in parts) for parts in _search(pi))
    return Fraction(sum(terms), whole)


def check_exp_identity(n, order, omegas=None):
    """Compare the weighted enumeration against exp(t (M_{n-1} - 1)).

    Left side: sum over n-partitions of omega_c * t^corner * q^size,
    taken as omega_c(rep) * orbit * t^corner over the orbit
    representatives of each size.  Permuting the n base axes permutes
    the down-sets a partition decomposes into and fixes the corner cell,
    so omega_c and the corner height are constant on an orbit.  omegas,
    when given, maps rep.key() to omega_c(rep) for every representative;
    otherwise omega_c is computed here, once per representative.

    Equality says that the decomposition search is complete (see the
    module docstring); M_{n-1} is counted from the same representatives.
    Returns (equal, lhs, rhs).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs_coeffs = [QPoly.one()]
    for s in range(1, order + 1):
        c = QPoly.zero()
        for rep, orbit in canonical_representatives(n, s):
            wc = omega_c(rep) if omegas is None else omegas[rep.key()]
            term = (0,) * rep.corner_height() + (wc.numerator * orbit,)
            c = c + QPoly.from_ints(term, wc.denominator)
        lhs_coeffs.append(c)
    lhs = TruncatedSeries(order, lhs_coeffs)
    m = m_series(n - 1, order, n)
    rhs = (m - TruncatedSeries.one(order)).scale_by_ell().exp()
    return lhs == rhs, lhs, rhs

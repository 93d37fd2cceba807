"""Combinatorial partition weights via multiset decompositions.

An (n+1)-partition's height array can be written as a non-negative
integer combination of binary arrays of n-partitions.  The weight
omega_c sums 1/prod(multiplicities!) over all such decompositions and
conjecturally matches the geometric weight extracted by the Euler-class
pipeline; `check omega` compares the two row by row.

Multisets of nonempty n-partitions are exactly the terms of
exp(t (M_n - 1)), with t counting the parts (every part covers the
corner cell once, so the number of parts is the corner height).  So
the identity sum over (n+1)-partitions of omega_c t^h q^|pi| =
exp(t (M_n - 1)) holds exactly when the decomposition search finds every
decomposition: it checks the search, not omega = omega_c.  Its left
side is summed over orbit representatives weighted by orbit size,
since omega_c and the corner height are invariant under permutations
of the base axes.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .partitions import canonical_representatives, sub_partitions
from .ratpoly import QPoly
from .series import TruncatedSeries, m_series


class OmegaDecomposition:
    """Multiset of component partitions: serialized key -> multiplicity.

    components maps each key to the component MultiPartition that the
    search used, so verify reads the cell sums from those objects.
    """

    __slots__ = ("parts", "components")

    def __init__(self, parts, components=()):
        self.parts = dict(parts)
        self.components = dict(components)

    def weight_term(self):
        term = Fraction(1)
        for m in self.parts.values():
            term /= factorial(m)
        return term

    def verify(self, pi):
        """Re-check the cell-sum equation against the decomposed partition.

        A part without a component object fails.
        """
        total = {}
        for key, m in self.parts.items():
            xi = self.components.get(key)
            if xi is None:
                return False
            for base, h in xi.heights.items():
                for level in range(1, h + 1):
                    idx = base + (level,)
                    total[idx] = total.get(idx, 0) + m
        return total == pi.heights

    def __eq__(self, other):
        return isinstance(other, OmegaDecomposition) and self.parts == other.parts

    def __repr__(self):
        return "OmegaDecomposition(%r)" % (self.parts,)


def _column_runs(heights):
    """Top occupied level per column base; columns are contiguous prefixes."""
    runs = {}
    for idx in heights:
        base, level = idx[:-1], idx[-1]
        if level > runs.get(base, 0):
            runs[base] = level
    return runs


def _candidate_parts(pi):
    """All component partitions that could enter some decomposition.

    A component's staircase must fit under the column profile of the
    height array, so the candidates are exactly the nonempty
    sub-partitions of that profile.  Ordered descending by (size, key):
    largest first so dead branches die early, and the fixed order makes
    the multiset search duplicate-free.
    """
    out = sub_partitions(pi.arity - 1, _column_runs(pi.heights))
    out.sort(key=lambda xi: (xi.size, xi.key()), reverse=True)
    return out


def _fits(xi, remainder):
    """Whether subtracting the binary array keeps the remainder admissible.

    Needs every column of the candidate to stay within the remainder's
    run and to end at a strict descent, so that columns remain
    non-negative and non-increasing.  The remainder stores only positive
    values, so a strict descent at the top cell also keeps it in the run.
    """
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


def decompositions(pi):
    """All decompositions of the height array into binary arrays.

    Backtracking over candidates in a fixed descending order; each
    result is re-verified against the cell-sum equation before being
    returned.
    """
    if pi.arity < 2:
        raise ValueError("decompositions need arity >= 2")
    if pi.is_empty():
        return [OmegaDecomposition({})]
    cands = _candidate_parts(pi)
    results = []

    def search(remainder, start, stack):
        if not remainder:
            parts, components = {}, {}
            for i in stack:
                key = cands[i].serialize()
                parts[key] = parts.get(key, 0) + 1
                components[key] = cands[i]
            results.append(OmegaDecomposition(parts, components))
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
    for dec in results:
        if not dec.verify(pi):
            raise AssertionError("decomposition failed re-verification: %r" % (dec,))
    return results


def omega_c(pi):
    """Combinatorial weight: sum of 1/prod(m!) over decompositions.

    For arity 1 the decomposition into height prefixes is unique and
    forced by the successive differences, so the weight is the product
    of their inverse factorials.
    """
    if pi.is_empty():
        return Fraction(1)
    if pi.arity == 1:
        total = Fraction(1)
        for (i,), h in pi.heights.items():
            diff = h - pi.height_at((i + 1,))
            total /= factorial(diff)
        return total
    return sum((dec.weight_term() for dec in decompositions(pi)), Fraction(0))


def check_exp_identity(n, order, omegas=None):
    """Compare the weighted enumeration against exp(t (M_{n-1} - 1)).

    Left side: sum over n-partitions of omega_c * t^corner * q^size,
    taken as omega_c(rep) * orbit * t^corner over the orbit
    representatives of each size.  Permuting the n base axes permutes
    the down-sets a partition decomposes into and fixes the corner cell,
    so omega_c and the corner height are constant on an orbit.  omegas,
    when given, maps rep.key() to omega_c(rep) for every representative;
    otherwise omega_c is computed here, once per representative.

    Multisets of nonempty (n-1)-partitions are exactly the terms of the
    right side, with t counting the parts, so equality says that the
    decomposition search is complete; the evidence for omega = omega_c
    is the per-row match of `check omega`.  Returns (equal, lhs, rhs).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs_coeffs = [QPoly.one()]
    for s in range(1, order + 1):
        c = QPoly.zero()
        for rep, orbit in canonical_representatives(n, s):
            wc = omega_c(rep) if omegas is None else omegas[rep.key()]
            c = c + QPoly.const(wc * orbit).shift(rep.corner_height())
        lhs_coeffs.append(c)
    lhs = TruncatedSeries(order, lhs_coeffs)
    m = m_series(n - 1, order)
    rhs = (m - TruncatedSeries.one(order)).scale_by_ell().exp()
    return lhs == rhs, lhs, rhs

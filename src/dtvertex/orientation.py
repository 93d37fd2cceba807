"""Orientation assignments and the sign-uniqueness search.

An orientation picks the sign of the vertex square root at every fixed
point.  Specialized weights are invariant under permuting the base
coordinate axes, so signs are stored per canonical partition and apply
to every orbit member.  The uniqueness search works on the coefficient
slices of the auxiliary variable, top degree first: a partition with
corner height h contributes to the slice of degree h with its full
unsigned weight, partitions with larger corner height are already
pinned, smaller ones cannot reach the slice.  When every contributor
has positive weight, any sign flip moves the slice strictly away from
its target, which kills the whole search space at once.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product as iproduct

from .partitions import MultiPartition, canonical_representatives
from .ratpoly import QPoly
from .series import build_z_4k, target_4k


class OrientationAssignment:
    """Map from canonical partition keys to signs, with a convention tag."""

    __slots__ = ("signs", "convention")

    def __init__(self, signs, convention="explicit"):
        self.signs = dict(signs)
        self.convention = convention

    def sign_for(self, key):
        return self.signs[key]

    def flipped(self, keys):
        signs = dict(self.signs)
        for k in keys:
            signs[k] = -signs[k]
        return OrientationAssignment(signs, "explicit")

    def to_json_obj(self):
        return {"convention": self.convention, "signs": self.signs}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            obj = json.load(fh)
        signs = obj.get("signs") if isinstance(obj, dict) else None
        if not isinstance(signs, dict) or not all(s in (1, -1) for s in signs.values()):
            raise ValueError("%s: \"signs\" must map partitions to 1 or -1" % path)
        return cls(signs, obj.get("convention", "explicit"))

    def __repr__(self):
        return "OrientationAssignment(%d signs, %s)" % (len(self.signs), self.convention)


def positive_omega_orientation(d, weights):
    """Signs making every specialized weight (-1)^size * |omega| * column.

    Reads each sign from weights, a weight_table; the empty partition
    gets +1.
    """
    signs = {MultiPartition(d - 1).serialize(): 1}
    signs.update((key, w.sign) for key, w in weights.items())
    return OrientationAssignment(signs, "positive_omega")


class UniquenessReport:
    """Outcome of the orientation uniqueness search."""

    __slots__ = ("verdict", "slices", "alternative", "detail")

    def __init__(self, verdict, slices, alternative=None, detail=""):
        self.verdict = verdict
        self.slices = slices
        self.alternative = alternative
        self.detail = detail

    def to_json_obj(self):
        return {
            "verdict": self.verdict,
            "slices": self.slices,
            "alternative": self.alternative,
            "detail": self.detail,
        }


def _column_poly(h):
    poly = QPoly.one()
    for i in range(1, h + 1):
        poly = poly * QPoly((Fraction(-(i - 1)), Fraction(1)))
    return poly


def verify_uniqueness(d, order, weights, subset_cap=1 << 16):
    """Search for orientation assignments other than the positive one.

    weights is a weight_table covering sizes 1..order.  First confirms
    that the positive-weight orientation reproduces the reference
    series.  Then, order by order and slice by slice from the
    top degree down, checks that the free contributors all carry
    positive weight; flipping any non-empty set of orbit members then
    changes the slice by twice a positive amount and the target is
    missed.  Slices with a non-positive weight fall back to an exact
    exhaustive search over flip counts (capped); a flip-count vector
    annihilating every slice would be a genuine alternative and is
    returned as a certificate.
    """
    orient = positive_omega_orientation(d, weights)
    z = build_z_4k(d, order, orient, weights)
    target = target_4k(d, order)
    if z != target:
        return UniquenessReport(
            "precondition failed",
            [],
            detail="positive orientation does not reproduce the reference series",
        )
    slices = []
    for n in range(1, order + 1):
        reps = [
            (rep, orbit, weights[rep.serialize()].omega, rep.corner_height())
            for rep, orbit in canonical_representatives(d - 1, n)
        ]
        for j in range(n, -1, -1):
            free = [(rep, orbit, om) for rep, orbit, om, h in reps if h == j]
            if not free:
                continue
            entry = {
                "q_order": n,
                "ell_degree": j,
                "contributors": len(free),
            }
            if all(om > 0 for _, _, om in free):
                entry["status"] = "pruned"
                slices.append(entry)
                continue
            # Exhaustive fallback: choose how many orbit members of each
            # canonical class to flip and test every slice it touches.
            space = 1
            for _, orbit, _ in free:
                space *= orbit + 1
            if space > subset_cap:
                entry["status"] = "cap exceeded"
                slices.append(entry)
                return UniquenessReport(
                    "inconclusive",
                    slices,
                    detail="flip space of size %d exceeds cap %d" % (space, subset_cap),
                )
            sign_n = -1 if n % 2 else 1
            found = None
            for counts in iproduct(*(range(orbit + 1) for _, orbit, _ in free)):
                if not any(counts):
                    continue
                ok = True
                for jj in range(n + 1):
                    delta = Fraction(0)
                    for (rep, orbit, om), k in zip(free, counts):
                        coeff = _column_poly(rep.corner_height()).coefficient(jj)
                        delta += 2 * k * sign_n * om * coeff
                    if delta:
                        ok = False
                        break
                if ok:
                    found = counts
                    break
            if found:
                entry["status"] = "alternative"
                slices.append(entry)
                alternative = {
                    rep.serialize(): int(k)
                    for (rep, orbit, om), k in zip(free, found)
                    if k
                }
                return UniquenessReport(
                    "alternative found",
                    slices,
                    alternative=alternative,
                    detail="flip counts per canonical partition at q^%d" % n,
                )
            entry["status"] = "searched"
            slices.append(entry)
    return UniquenessReport("unique", slices)

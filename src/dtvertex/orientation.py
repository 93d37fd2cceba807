"""Orientation assignments and the sign-uniqueness rule.

An orientation picks the sign of the vertex square root at every fixed
point.  Specialized weights are invariant under permuting the base
coordinate axes, so signs are stored per canonical partition and apply
to every orbit member.  Uniqueness is decided on the coefficient slices
of the auxiliary variable, top degree first: a partition with corner
height h contributes to the slice of degree h with its full unsigned
weight, partitions with larger corner height are already pinned,
smaller ones cannot reach the slice.

Every omega is |c| for the constant c of a specialized value, or 0 for
a zero Euler class (forms.compute_weight), and PartitionWeight
rejects a negative one, so omega >= 0.  The contributors of one slice
share h, so flipping k_pi orbit members of each moves the top
coefficient by 2 * (+-1) * sum(k_pi * omega_pi), which is zero exactly
when every flip lands on a zero-omega contributor.  Hence the rule: a
slice whose contributors all have omega > 0 is pruned (no flip keeps it
on target), and otherwise one flip of its last zero-omega contributor
is an alternative orientation.
"""

from __future__ import annotations

import json

from .partitions import MultiPartition, canonical_representatives
from .series import build_z_4k, target_4k


class OrientationAssignment:
    """Map from canonical partition keys to signs, with a convention tag."""

    __slots__ = ("signs", "convention")

    def __init__(self, signs, convention="explicit"):
        self.signs = dict(signs)
        self.convention = convention

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
        if not isinstance(signs, dict) or not all(
            type(s) is int and s in (1, -1) for s in signs.values()
        ):
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


def verify_uniqueness(d, order, weights):
    """Decide whether the positive-weight orientation is the only one.

    weights is a weight_table covering sizes 1..order.  First confirms
    that the positive-weight orientation reproduces the reference
    series.  Then, order by order and slice by slice from the top
    degree down, applies the closed rule of the module docstring: a
    slice whose contributors all have omega > 0 is pruned; otherwise
    flipping one orbit member of its last zero-omega contributor
    changes no slice, and that flip is returned as the alternative.
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
        reps = []
        for rep, _ in canonical_representatives(d - 1, n):
            key = rep.serialize()
            reps.append((key, weights[key].omega, rep.corner_height()))
        for j in range(n, -1, -1):
            free = [(key, om) for key, om, h in reps if h == j]
            if not free:
                continue
            entry = {
                "q_order": n,
                "ell_degree": j,
                "contributors": len(free),
            }
            slices.append(entry)
            zeros = [key for key, om in free if om == 0]
            if not zeros:
                entry["status"] = "pruned"
                continue
            entry["status"] = "alternative"
            return UniquenessReport(
                "alternative found",
                slices,
                alternative={zeros[-1]: 1},
                detail="flip counts per canonical partition at q^%d" % n,
            )
    return UniquenessReport("unique", slices)

"""Orientations and the sign-uniqueness rule.

An orientation picks the sign of the vertex square root at every fixed
point.  Specialized weights are invariant under permuting the base
coordinate axes, so an orientation is a plain dict from serialized
canonical partitions to 1 or -1, each sign applying to every orbit
member; an --orientation file holds that dict under "signs".
Uniqueness is decided on the coefficient slices of the auxiliary
variable, top degree first: a partition with corner height h
contributes to the slice of degree h with its full unsigned weight,
partitions with larger corner height are already pinned, smaller ones
cannot reach the slice.

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

from .partitions import canonical_representatives
from .series import build_z_4k, target_4k


def load_orientation(path):
    """The {serialized partition: 1 or -1} dict under "signs" in a JSON file.

    Every other key of the file, such as "convention", is ignored.
    """
    with open(path) as fh:
        obj = json.load(fh)
    signs = obj.get("signs") if isinstance(obj, dict) else None
    if not isinstance(signs, dict) or not all(
        type(s) is int and s in (1, -1) for s in signs.values()
    ):
        raise ValueError("%s: \"signs\" must map partitions to 1 or -1" % path)
    return signs


def positive_omega_orientation(weights):
    """Signs making every specialized weight (-1)^size * |omega| * column.

    Reads each sign from weights, a weight_table.
    """
    return {key: w.sign for key, w in weights.items()}


def verify_uniqueness(d, order, weights):
    """Decide whether the positive-weight orientation is the only one.

    weights is a weight_table covering sizes 1..order.  First confirms
    that the positive-weight orientation reproduces the reference
    series.  Then, order by order and slice by slice from the top
    degree down, applies the closed rule of the module docstring: a
    slice whose contributors all have omega > 0 is pruned; otherwise
    flipping one orbit member of its last zero-omega contributor
    changes no slice, and that flip is returned as the alternative.
    Returns the report {"verdict", "slices", "alternative", "detail"}.
    """
    orient = positive_omega_orientation(weights)
    z = build_z_4k(d, order, orient, weights)
    target = target_4k(d, order)
    if z != target:
        return {
            "verdict": "precondition failed", "slices": [], "alternative": None,
            "detail": "positive orientation does not reproduce the reference series",
        }
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
            return {
                "verdict": "alternative found", "slices": slices,
                "alternative": {zeros[-1]: 1},
                "detail": "flip counts per canonical partition at q^%d" % n,
            }
    return {"verdict": "unique", "slices": slices, "alternative": None, "detail": ""}

"""Orientation assignments and the uniqueness rule."""

import json
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from dtvertex import (
    PartitionWeight,
    QPoly,
    ShapeMismatch,
    build_z_4k,
    canonical_representatives,
    load_orientation,
    positive_omega_orientation,
    target_4k,
    verify_uniqueness,
)

from conftest import cached_weight_table, single_box
from oracles import flipped_orientation


# The exhaustive flip-count search that verify_uniqueness replaced, kept
# as the oracle for the closed rule; it returns the same report dict.
def _report(verdict, slices, alternative=None, detail=""):
    return {"verdict": verdict, "slices": slices, "alternative": alternative, "detail": detail}


def _column_poly(h):
    poly = QPoly.one()
    for i in range(1, h + 1):
        poly = poly * QPoly((Fraction(-(i - 1)), Fraction(1)))
    return poly


def flip_search_uniqueness(d, order, weights, subset_cap=1 << 16):
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
    orient = positive_omega_orientation(weights)
    z = build_z_4k(d, order, orient, weights)
    target = target_4k(d, order)
    if z != target:
        return _report(
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
                return _report(
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
                return _report(
                    "alternative found",
                    slices,
                    alternative=alternative,
                    detail="flip counts per canonical partition at q^%d" % n,
                )
            entry["status"] = "searched"
            slices.append(entry)
    return _report("unique", slices)


class _SeriesOf(PartitionWeight):
    """A weight whose series term stays that of another weight."""

    __slots__ = ("original",)

    def signed_poly(self, orientation_sign):
        return self.original.signed_poly(orientation_sign)


def with_omega(w, omega):
    # keeps the series term, so the positive orientation still meets the
    # precondition and only the uniqueness rule sees the new omega
    out = _SeriesOf(w.partition, w.d, w.verdict, omega, w.sign)
    out.original = w
    return out


@pytest.mark.parametrize("d,order", [(4, 4), (8, 3)])
def test_closed_rule_matches_flip_search(d, order):
    weights = cached_weight_table(d, order)
    expected = flip_search_uniqueness(d, order, weights)
    assert verify_uniqueness(d, order, weights) == expected


def test_closed_rule_matches_flip_search_with_zero_weights():
    d, order = 4, 4
    real = cached_weight_table(d, order)
    keys = sorted(real)
    rng = random.Random(4)
    verdicts = set()
    for _ in range(60):
        zeroed = rng.sample(keys, rng.randint(1, 3))
        weights = {k: with_omega(w, Fraction(0)) if k in zeroed else w
                   for k, w in real.items()}
        expected = flip_search_uniqueness(d, order, weights)
        got = verify_uniqueness(d, order, weights)
        assert got == expected
        verdicts.add(got["verdict"])
    assert verdicts == {"alternative found"}
    # The one intended difference: where the search gave up on a large
    # flip space, the rule still names the alternative.
    weights = dict(real, **{keys[0]: with_omega(real[keys[0]], Fraction(0))})
    capped = flip_search_uniqueness(d, order, weights, subset_cap=0)
    assert capped["verdict"] == "inconclusive"
    report = verify_uniqueness(d, order, weights)
    assert report["verdict"] == "alternative found"
    assert report["slices"][:-1] == capped["slices"][:-1]
    assert capped["slices"][-1]["status"] == "cap exceeded"
    assert report["slices"][-1]["status"] == "alternative"


def test_negative_weight_is_shape_mismatch():
    weights = cached_weight_table(4, 3)
    key = sorted(weights)[-1]
    w = weights[key]
    for omega, sign in ((Fraction(-1), w.sign), (w.omega, 5)):
        with pytest.raises(ShapeMismatch) as info:
            PartitionWeight(w.partition, w.d, w.verdict, omega, sign)
        assert info.value.partition == key


def test_single_box_sign_is_plus_one():
    orient = positive_omega_orientation(cached_weight_table(8, 1))
    assert orient == {single_box(7).serialize(): 1}


def test_positive_orientation_reproduces_target():
    for d, order in [(4, 3), (8, 3)]:
        weights = cached_weight_table(d, order)
        orient = positive_omega_orientation(weights)
        assert build_z_4k(d, order, orient, weights) == target_4k(d, order)


def test_flipping_one_sign_changes_only_its_order():
    d, order = 4, 3
    weights = cached_weight_table(d, order)
    orient = positive_omega_orientation(weights)
    base = build_z_4k(d, order, orient, weights)
    key = single_box(3).serialize()
    flipped = build_z_4k(d, order, flipped_orientation(orient, [key]), weights)
    for n in range(order + 1):
        if n == 1:
            assert flipped.coefficient(n) != base.coefficient(n)
        else:
            assert flipped.coefficient(n) == base.coefficient(n)


def test_uniqueness_trivial_order():
    report = verify_uniqueness(8, 1, cached_weight_table(8, 1))
    assert report["verdict"] == "unique"
    assert report["slices"][0]["status"] == "pruned"


@pytest.mark.parametrize("d,order", [(4, 3), (8, 3)])
def test_uniqueness_small(d, order):
    report = verify_uniqueness(d, order, cached_weight_table(d, order))
    assert report["verdict"] == "unique"
    assert all(s["status"] == "pruned" for s in report["slices"])
    assert report["alternative"] is None and report["detail"] == ""


def test_assignment_roundtrip(tmp_path):
    # a file as the earlier assignment class saved it: a "convention" key
    # beside the signs, one indented key per line, and the empty
    # partition's sign, which no sum reads
    orient = positive_omega_orientation(cached_weight_table(4, 2))
    path = tmp_path / "signs.json"
    obj = {"convention": "positive_omega", "signs": {"[]": 1, **orient}}
    path.write_text(json.dumps(obj, sort_keys=True, indent=1))
    assert load_orientation(path) == obj["signs"]
    path.write_text(json.dumps({"signs": orient}))
    assert load_orientation(path) == orient


def test_flipped_is_new_assignment():
    orient = positive_omega_orientation(cached_weight_table(4, 2))
    key = single_box(3).serialize()
    other = flipped_orientation(orient, [key])
    assert other[key] == -orient[key]
    assert orient[key] == 1

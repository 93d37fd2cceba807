"""Orientation assignments and the uniqueness search."""

import pytest

from dtvertex import (
    MultiPartition,
    OrientationAssignment,
    build_z_4k,
    positive_omega_orientation,
    target_4k,
    verify_uniqueness,
)

from conftest import cached_weight_table, single_box


def test_single_box_sign_is_plus_one():
    orient = positive_omega_orientation(8, cached_weight_table(8, 1))
    assert orient.convention == "positive_omega"
    assert orient.sign_for(single_box(7).serialize()) == 1
    assert orient.sign_for(MultiPartition(7).serialize()) == 1


def test_positive_orientation_reproduces_target():
    for d, order in [(4, 3), (8, 3)]:
        weights = cached_weight_table(d, order)
        orient = positive_omega_orientation(d, weights)
        assert build_z_4k(d, order, orient, weights) == target_4k(d, order)


def test_flipping_one_sign_changes_only_its_order():
    d, order = 4, 3
    weights = cached_weight_table(d, order)
    orient = positive_omega_orientation(d, weights)
    base = build_z_4k(d, order, orient, weights)
    key = single_box(3).serialize()
    flipped = build_z_4k(d, order, orient.flipped([key]), weights)
    for n in range(order + 1):
        if n == 1:
            assert flipped.coefficient(n) != base.coefficient(n)
        else:
            assert flipped.coefficient(n) == base.coefficient(n)


def test_uniqueness_trivial_order():
    report = verify_uniqueness(8, 1, cached_weight_table(8, 1))
    assert report.verdict == "unique"
    assert report.slices[0]["status"] == "pruned"


@pytest.mark.parametrize("d,order", [(4, 3), (8, 3)])
def test_uniqueness_small(d, order):
    report = verify_uniqueness(d, order, cached_weight_table(d, order))
    assert report.verdict == "unique"
    assert all(s["status"] == "pruned" for s in report.slices)
    assert report.alternative is None


def test_assignment_roundtrip(tmp_path):
    orient = positive_omega_orientation(4, cached_weight_table(4, 2))
    path = tmp_path / "signs.json"
    orient.save(path)
    loaded = OrientationAssignment.load(path)
    assert loaded.signs == orient.signs
    assert loaded.convention == "positive_omega"


def test_flipped_is_new_assignment():
    orient = positive_omega_orientation(4, cached_weight_table(4, 2))
    key = single_box(3).serialize()
    other = orient.flipped([key])
    assert other.signs[key] == -orient.signs[key]
    assert orient.signs[key] == 1

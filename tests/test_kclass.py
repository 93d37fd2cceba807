"""Laurent ring arithmetic and the equivariant vertex."""

import pytest

from dtvertex import (
    DimensionMismatch,
    KClass,
    character,
    check_key_conjecture,
    cy_fixed_part,
    cy_reduce,
    enumerate_partitions,
    vertex,
    vertex_split,
)

from conftest import corner_column, single_box


def t(dim, i, e=1):
    return KClass.monomial(dim, tuple(e if j == i else 0 for j in range(dim)))


def test_ring_ops():
    one = KClass.one(3)
    a = one + t(3, 0)
    b = one - t(3, 0)
    assert a * b == one - t(3, 0, 2)
    assert (a * KClass.zero(3)).is_zero()
    prod = (one - t(3, 0)) * (one - t(3, 1)) * (one - t(3, 2))
    expected = {
        (0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1,
        (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 1): -1,
    }
    assert prod.terms == expected
    assert a + b == 2 * one
    assert (a - a).is_zero()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        KClass.one(3) + KClass.one(4)


def test_bar_involution(seven_part_size9):
    x = t(3, 0)
    assert x.bar() == t(3, 0, -1)
    assert KClass.one(3).bar() == KClass.one(3)
    z = character(seven_part_size9, 8)
    assert z.bar().bar() == z
    assert z.bar().terms == {tuple(-a for a in w): 1 for w in z.terms}


def test_vertex_single_box_dim3():
    v = vertex(single_box(2), 3)
    expected = {
        (-1, 0, 0): 1, (0, -1, 0): 1, (0, 0, -1): 1,
        (-1, -1, 0): -1, (-1, 0, -1): -1, (0, -1, -1): -1,
    }
    assert v.terms == expected


def test_vertex_empty_partition():
    from dtvertex import MultiPartition

    assert vertex(MultiPartition(4), 5).is_zero()


def test_vertex_rank():
    assert vertex(single_box(3), 4).rank() == 2
    for pi in enumerate_partitions(2, 3):
        assert vertex(pi, 3).rank() == 0
    for pi in enumerate_partitions(7, 2):
        assert vertex(pi, 8).rank() == 4


def test_vertex_denominator_clears():
    # V * (t_1..t_d) recovers the defining combination with no division
    for d, pi in [(3, corner_column(2, 2)), (4, single_box(3))]:
        z = character(pi, d)
        zbar = z.bar()
        prod = z * zbar
        for i in range(d):
            e = tuple(1 if j == i else 0 for j in range(d))
            prod = prod - prod.shift(e)
        sgn = -1 if d % 2 else 1
        tau = (1,) * d
        assert vertex(pi, d).shift(tau) == z.shift(tau) + sgn * zbar - sgn * prod


def test_cy_reduce_examples():
    d = 4
    assert cy_reduce(KClass.monomial(d, (1, 1, 1, 1))) == KClass.one(d)
    assert cy_reduce(KClass.monomial(d, (0, 0, 0, 1))) == KClass.monomial(
        d, (-1, -1, -1, 0)
    )
    assert cy_reduce(KClass.monomial(d, (1, 0, 0, -1))) == KClass.monomial(
        d, (2, 1, 1, 0)
    )
    v = cy_reduce(vertex(single_box(2), 3))
    assert cy_reduce(v) == v


def test_cy_fixed_part():
    d = 4
    a = 3 * KClass.monomial(d, (1, 1, 1, 1)) + KClass.monomial(d, (1, 0, 0, 0))
    assert cy_fixed_part(a) == 3
    assert cy_fixed_part(vertex(single_box(2), 3)) == 0


def test_key_conjecture_verdicts():
    from dtvertex import MultiPartition

    assert check_key_conjecture(single_box(2), 3) == "ok"
    assert check_key_conjecture(MultiPartition(7), 8) == "ok"
    for n in range(1, 5):
        for pi in enumerate_partitions(7, n):
            assert check_key_conjecture(pi, 8) == "ok"


def test_vertex_split_identities():
    for d, max_size in [(3, 4), (5, 2)]:
        for n in range(1, max_size + 1):
            for pi in enumerate_partitions(d - 1, n):
                split = vertex_split(pi, d)
                v = cy_reduce(vertex(pi, d))
                assert split.plus + split.minus == v
                assert cy_reduce(split.plus.bar()) == -split.minus


def test_vertex_split_even_constant_term():
    for n in range(1, 5):
        for pi in enumerate_partitions(4, n):
            split = vertex_split(pi, 5)
            assert split.plus.coefficient((0,) * 5) % 2 == 0


def test_vertex_split_rejects_even_dimension():
    with pytest.raises(ValueError):
        vertex_split(single_box(3), 4)


def test_duality_of_the_vertex():
    for d, max_size in [(3, 4), (5, 3)]:
        for n in range(1, max_size + 1):
            for pi in enumerate_partitions(d - 1, n):
                v = cy_reduce(vertex(pi, d))
                assert cy_reduce(v.bar()) == -v
    for n in range(1, 4):
        for pi in enumerate_partitions(7, n):
            v = cy_reduce(vertex(pi, 8))
            assert cy_reduce(v.bar()) == v


def test_serialize_is_sorted():
    v = vertex(single_box(2), 3)
    rows = v.serialize()
    assert rows == sorted(rows)
    assert all(c for _, c in rows)

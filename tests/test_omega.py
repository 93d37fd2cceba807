"""Multiset decompositions and the combinatorial weight."""

import json
from fractions import Fraction

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtvertex import (
    MultiPartition,
    QPoly,
    TruncatedSeries,
    canonical_representatives,
    check_exp_identity,
    compute_weight,
    decompositions,
    enumerate_partitions,
    m_series,
    omega_c,
)
import dtvertex.omega as omega_mod
from dtvertex.omega import _candidate_parts, _cell_sums, _column_runs
from oracles import (
    binary_rep_contains,
    bounded_partitions,
    exp_identity_lhs,
    orbit,
    unpruned_decompositions,
)

from conftest import corner_column, raised_cube_without_corner, single_box


def part_from_key(arity, key):
    return MultiPartition.from_entries(arity, json.loads(key))


def test_single_box_decomposition():
    for arity in (2, 3, 7):
        assert decompositions(single_box(arity)) == [{single_box(arity - 1).serialize(): 1}]


def test_corner_column_decomposition():
    assert decompositions(corner_column(2, 2)) == [{single_box(1).serialize(): 2}]
    assert omega_c(corner_column(2, 2)) == Fraction(1, 2)


def test_raised_cube_without_corner_decomposition():
    # A splits only into its column profile (its 7 base cells) and the
    # single box, so omega_c(A) = 1; its geometric |omega| at d = 8 is
    # 1/2, the one order-8 mismatch
    for arity in (3, 7, 11):
        a = raised_cube_without_corner(arity)
        profile = MultiPartition(arity - 1, _column_runs(a.heights))
        assert profile.size == 7
        assert decompositions(a) == [
            {profile.serialize(): 1, single_box(arity - 1).serialize(): 1}
        ]
        assert omega_c(a) == 1


def test_empty_partition():
    assert decompositions(MultiPartition(3)) == [{}]
    assert omega_c(MultiPartition(3)) == 1


def test_decompositions_satisfy_cell_sums():
    for size in range(1, 5):
        for pi in enumerate_partitions(2, size):
            for dec in decompositions(pi):
                total = {}
                sizes = 0
                for key, m in dec.items():
                    xi = part_from_key(1, key)
                    sizes += m * xi.size
                    for idx in pi.heights:
                        total[idx] = total.get(idx, 0) + m * binary_rep_contains(xi, idx)
                assert total == dict(pi.heights)
                assert sizes == pi.size


def test_slice_identity():
    # multiplicities of parts at a fixed column height equal the height drop
    for pi in enumerate_partitions(3, 4):
        for dec in decompositions(pi):
            drops = {}
            for key, m in dec.items():
                xi = part_from_key(2, key)
                for base, h in xi.heights.items():
                    drops[(base, h)] = drops.get((base, h), 0) + m
            for (base, h), m in drops.items():
                expected = pi.height_at(base + (h,)) - pi.height_at(base + (h + 1,))
                assert m == expected


def test_omega_positive():
    for arity, size in [(2, 4), (3, 3), (7, 2)]:
        for pi in enumerate_partitions(arity, size):
            assert omega_c(pi) > 0


def test_corner_height_one_weight_is_one():
    for arity, size in [(2, 4), (3, 4)]:
        for pi in enumerate_partitions(arity, size):
            if pi.corner_height() == 1:
                assert omega_c(pi) == 1


def test_arity_one_weight():
    assert omega_c(MultiPartition(1, {(1,): 2})) == Fraction(1, 2)
    assert omega_c(MultiPartition(1, {(1,): 1, (2,): 1})) == 1
    assert omega_c(MultiPartition(1, {(1,): 3, (2,): 1})) == Fraction(1, 2)


def test_fixture_weights(seven_part_size9, seven_part_size10, seven_part_size14):
    assert omega_c(seven_part_size9) == 64
    assert omega_c(seven_part_size10) == Fraction(729, 2)
    assert omega_c(seven_part_size14) == Fraction(81, 2)


def test_verify_rejects_a_changed_multiplicity(monkeypatch):
    pi = corner_column(2, 2)
    assert _cell_sums([(single_box(1), 2)]) == pi.heights
    assert _cell_sums([(single_box(1), 3)]) != pi.heights

    real = omega_mod._cell_sums

    def one_too_many(parts):
        (xi, m), *rest = parts
        return real([(xi, m + 1)] + rest)

    monkeypatch.setattr(omega_mod, "_cell_sums", one_too_many)
    with pytest.raises(AssertionError, match="re-verification"):
        decompositions(pi)


# (arity, largest size) of the representatives whose decompositions are
# matched: 2,325 of size 1 and up
_PRUNING_GRID = [(2, 9), (3, 9), (4, 8), (5, 8), (6, 8), (7, 8)]


def test_decompositions_match_unpruned_oracle(seven_part_size10, seven_part_size14):
    # the corner-count bounds drop only branches that cannot close: the
    # same decompositions, each with its parts in the same order
    reps = [
        rep
        for arity, order in _PRUNING_GRID
        for size in range(1, order + 1)
        for rep, _ in canonical_representatives(arity, size)
    ]
    assert len(reps) == 2325
    for pi in reps + [seven_part_size10, seven_part_size14]:
        found = [list(dec.items()) for dec in decompositions(pi)]
        assert found == [list(dec.items()) for dec in unpruned_decompositions(pi)]


def test_decompositions_reject_arity_one():
    with pytest.raises(ValueError):
        decompositions(MultiPartition(1, {(1,): 2}))


@pytest.mark.parametrize("n,order", [(1, 6), (2, 5), (3, 4), (7, 3), (7, 5), (7, 6)])
def test_exp_identity(n, order):
    equal, lhs, rhs = check_exp_identity(n, order)
    assert equal
    assert lhs.coefficient(0) == rhs.coefficient(0)


@pytest.mark.parametrize("n,order", [(3, 6), (7, 5)])
def test_exp_identity_lhs_matches_per_partition_oracle(n, order):
    _, lhs, _ = check_exp_identity(n, order)
    assert lhs == exp_identity_lhs(n, order)


def test_exp_identity_reads_given_omegas():
    omegas = {
        rep.key(): omega_c(rep)
        for s in range(1, 4)
        for rep, _ in canonical_representatives(3, s)
    }
    assert check_exp_identity(3, 3, omegas) == check_exp_identity(3, 3)
    omegas[next(iter(omegas))] += 1
    assert not check_exp_identity(3, 3, omegas)[0]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), arity=st.integers(min_value=2, max_value=7))
def test_omega_c_is_constant_on_orbits(data, arity):
    size = data.draw(st.integers(min_value=1, max_value=5 if arity < 5 else 4))
    pi = data.draw(st.sampled_from(_partitions(arity, size)))
    assert {omega_c(member) for member in orbit(pi)} == {omega_c(pi)}


def test_exp_identity_truncated_marker_order():
    _, lhs, rhs = check_exp_identity(2, 5)
    lhs, rhs = ([QPoly(c.coeffs[:3]) for c in s.coeffs] for s in (lhs, rhs))
    assert lhs == rhs
    assert all(c.degree() <= 2 for c in lhs)


def test_exp_identity_at_marker_one():
    _, lhs, _ = check_exp_identity(2, 5)
    target = (m_series(1, 5) - TruncatedSeries.one(5)).exp()
    assert lhs.eval_ell(1) == target.eval_ell(1)


def test_compare_omegas(seven_part_size9):
    assert compute_weight(single_box(7), 8).omega == omega_c(single_box(7)) == 1
    assert compute_weight(seven_part_size9, 8).omega == omega_c(seven_part_size9) == 64
    for pi in enumerate_partitions(3, 3):
        assert compute_weight(pi, 4).omega == omega_c(pi)


def bounded_candidates(pi):
    """The candidate list as the bounded enumeration builds it: every
    (arity-1)-partition under the column profile, size by size."""
    bound = _column_runs(pi.heights)
    out = []
    for s in range(1, sum(bound.values()) + 1):
        out.extend(bounded_partitions(pi.arity - 1, s, bound))
    out.sort(key=lambda xi: (xi.size, xi.key()), reverse=True)
    return out


def assert_candidates_match_oracle(pi):
    cands = _candidate_parts(pi)
    oracle = bounded_candidates(pi)
    assert [xi.key() for xi in cands] == [xi.key() for xi in oracle]
    assert cands == oracle


@functools.cache
def _partitions(arity, size):
    return enumerate_partitions(arity, size)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), arity=st.integers(min_value=2, max_value=7))
def test_candidate_parts_match_bounded_oracle(data, arity):
    size = data.draw(st.integers(min_value=1, max_value=5 if arity < 5 else 4))
    assert_candidates_match_oracle(data.draw(st.sampled_from(_partitions(arity, size))))


def test_candidate_parts_match_bounded_oracle_on_fixtures(
    seven_part_size9, seven_part_size10, seven_part_size14
):
    for pi in (seven_part_size9, seven_part_size10, seven_part_size14):
        assert_candidates_match_oracle(pi)


def test_candidate_parts_match_bounded_oracle_on_24_cells():
    # a 3-partition over a 4 x 6 base whose columns are 1 or 2 boxes tall:
    # its column profile is a 2-partition with 24 cells, and the walk over
    # them has no limit on the number of cells
    profile = {
        (i, j): 2 if i <= 2 and j <= 3 else 1 for i in range(1, 5) for j in range(1, 7)
    }
    pi = MultiPartition(
        3, {base + (k,): 1 for base, h in profile.items() for k in range(1, h + 1)}
    )
    assert _column_runs(pi.heights) == profile
    assert_candidates_match_oracle(pi)

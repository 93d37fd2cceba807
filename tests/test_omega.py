"""Multiset decompositions and the combinatorial weight."""

import functools
import itertools
import json
from fractions import Fraction
from math import factorial, prod

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
from dtvertex.errors import DTVertexError
from dtvertex.omega import _candidates, _cell_sums
from oracles import (
    arity_one_omega,
    binary_rep_contains,
    bounded_partitions,
    column_runs,
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
        profile = MultiPartition(arity - 1, column_runs(a.heights))
        assert profile.size == 7
        assert decompositions(a) == [
            {profile.serialize(): 1, single_box(arity - 1).serialize(): 1}
        ]
        assert omega_c(a) == 1


def test_empty_partition():
    # the search finds the one empty decomposition, so omega_c = 0!/0!
    for arity in (2, 3, 7):
        assert decompositions(MultiPartition(arity)) == [{}]
        assert omega_c(MultiPartition(arity)) == 1


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
                expected = pi.heights.get(base + (h,), 0) - pi.heights.get(base + (h + 1,), 0)
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


def test_arity_one_weight_matches_closed_form():
    # the search at arity 1 against the product of inverse factorials of
    # the height differences, on every 1-partition through size 16
    parts = [pi for size in range(17) for pi in enumerate_partitions(1, size)]
    assert len(parts) == 915
    for pi in parts:
        assert omega_c(pi) == arity_one_omega(pi)


def test_fixture_weights(seven_part_size9, seven_part_size10, seven_part_size14):
    assert omega_c(seven_part_size9) == 64
    assert omega_c(seven_part_size10) == Fraction(729, 2)
    assert omega_c(seven_part_size14) == Fraction(81, 2)


def test_verify_rejects_a_changed_multiplicity(monkeypatch):
    pi = corner_column(2, 2)
    box = (((1,), 1),)
    assert _cell_sums([(box, 2)]) == pi.heights
    assert _cell_sums([(box, 3)]) != pi.heights

    real = omega_mod._cell_sums

    def one_too_many(parts):
        (xi, m), *rest = parts
        return real([(xi, m + 1)] + rest)

    monkeypatch.setattr(omega_mod, "_cell_sums", one_too_many)
    with pytest.raises(DTVertexError, match="re-verification"):
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


@st.composite
def corner_height_partitions(draw):
    """Partitions of arity 2 to 4 with corner height 1 to 4 on at most
    eight base cells: a height drawn for each cell in sorted order, cut
    to the least height of its predecessors."""
    arity = draw(st.integers(min_value=2, max_value=4))
    sides = [range(1, draw(st.integers(min_value=1, max_value=3)) + 1) for _ in range(arity)]
    # a prefix of the box in sorted order is closed toward the corner
    cells = list(itertools.product(*sides))[:8]
    heights = {}
    for c in cells:
        top = draw(st.integers(min_value=0 if heights else 1, max_value=4))
        for j, i in enumerate(c):
            if i > 1:
                top = min(top, heights.get(c[:j] + (i - 1,) + c[j + 1 :], 0))
        if top:
            heights[c] = top
    return MultiPartition(arity, heights)


@settings(max_examples=150, deadline=None)
@given(pi=corner_height_partitions())
def test_floored_search_matches_unfloored_oracle(pi):
    # the oracle has neither the must-hold floor nor the corner-count
    # bounds, and sums omega_c in Fraction steps
    oracle = unpruned_decompositions(pi)
    assert [list(dec.items()) for dec in decompositions(pi)] == [
        list(dec.items()) for dec in oracle
    ]
    assert omega_c(pi) == sum(
        (Fraction(1, prod(map(factorial, dec.values()))) for dec in oracle), Fraction(0)
    )


def test_decompositions_reject_arity_one():
    with pytest.raises(ValueError):
        decompositions(MultiPartition(1, {(1,): 2}))


# n = 1 runs the search at arity 1 and counts arity 0 from arity 1
@pytest.mark.parametrize(
    "n,order", [(1, 6), (1, 12), (2, 5), (2, 9), (3, 4), (7, 3), (7, 5), (7, 6)]
)
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
    (arity-1)-partition under the column profile, size by size, that
    holds each cell where the height array equals the corner height."""
    bound = column_runs(pi.heights)
    floor = column_runs(
        {idx: v for idx, v in pi.heights.items() if v == pi.corner_height()}
    )
    out = []
    for s in range(1, sum(bound.values()) + 1):
        out.extend(bounded_partitions(pi.arity - 1, s, bound))
    out = [xi for xi in out if all(xi.heights.get(b, 0) >= f for b, f in floor.items())]
    out.sort(key=lambda xi: (xi.size, xi.key()), reverse=True)
    return out


def assert_candidates_match_oracle(pi):
    oracle = bounded_candidates(pi)
    assert _candidates(pi) == [
        (xi.size, xi.key(), tuple(sorted(xi.heights.items()))) for xi in oracle
    ]


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
    # them has no limit on the number of cells.  The corner cell holds 2
    # and every other cell 1, so the floor is the corner alone and nearly
    # every sub-partition of the profile is a candidate
    profile = {
        (i, j): 2 if i <= 2 and j <= 3 else 1 for i in range(1, 5) for j in range(1, 7)
    }
    heights = {base + (k,): 1 for base, h in profile.items() for k in range(1, h + 1)}
    heights[(1, 1, 1)] = 2
    pi = MultiPartition(3, heights)
    assert column_runs(pi.heights) == profile
    assert len(_candidates(pi)) > 1000
    assert_candidates_match_oracle(pi)

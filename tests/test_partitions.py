"""Partition representation, enumeration, and symmetry reduction."""

import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtvertex import partitions
from dtvertex import (
    ArityMismatch,
    MultiPartition,
    canonical_representatives,
    canonicalize_axes,
    character,
    count_partitions,
    enumerate_partitions,
)
from oracles import (
    active_axes_by_scan,
    binary_rep_contains,
    bounded_partitions,
    brute_force_downsets,
    contains_cell,
    count_by_binomial_formula,
    orbit,
    representatives_by_grouping,
    size_bound_by_rounds,
    validate_by_neighbours,
)

from conftest import corner_column, single_box


@pytest.mark.parametrize(
    "arity,size",
    [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)],
)
def test_counts_match_downset_oracle(arity, size):
    # independent oracle: downward-closed box sets enumerated by brute force
    assert len(enumerate_partitions(arity, size)) == brute_force_downsets(arity, size)


@pytest.mark.parametrize("n", range(13))
def test_counts_match_closed_form(n):
    counts = count_partitions(n, 6)
    assert counts == [count_by_binomial_formula(n, s) for s in range(7)]


def test_enumerate_examples():
    assert len(enumerate_partitions(1, 4)) == 5
    assert len(enumerate_partitions(7, 1)) == 1
    assert len(enumerate_partitions(7, 6)) == 2024


def test_enumerate_size_zero():
    out = enumerate_partitions(3, 0)
    assert out == [MultiPartition(3)]
    assert not out[0].heights and out[0].size == 0


def test_enumeration_is_sorted_and_duplicate_free():
    for arity, size in [(2, 5), (3, 4), (4, 3)]:
        parts = enumerate_partitions(arity, size)
        keys = [p.key() for p in parts]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(p.size == size for p in parts)


# every arity up to 6 at sizes 1-7, and a few deeper or wider points;
# the orbits of a missing or surplus representative show up here
@pytest.mark.parametrize(
    "arity,size",
    [(1, 8), (2, 8), (3, 6), (4, 5), (7, 5), (11, 3), (11, 4), (1, 12), (3, 0)]
    + [(n, s) for n in range(1, 7) for s in range(1, 8) if (n, s) not in {(3, 6), (4, 5)}]
    + [(15, 3), (40, 2)],
)
def test_enumeration_matches_bounded_oracle(arity, size):
    assert enumerate_partitions(arity, size) == bounded_partitions(arity, size, None)


def test_count_examples():
    assert count_partitions(2, 4) == [1, 1, 3, 6, 13]
    assert count_partitions(5, 0) == [1]
    assert count_partitions(11, 4)[-1] == 430


def test_character_single_box():
    k = character(single_box(2), 3)
    assert k.as_dict() == {(0, 0, 0): 1}


def test_character_column():
    k = character(corner_column(3, 2), 4)
    assert k.as_dict() == {(0, 0, 0, 0): 1, (0, 0, 0, 1): 1}


def test_character_axis_box_partition(seven_part_size9):
    k = character(seven_part_size9, 8)
    expected = {(0,) * 8: 1}
    for i in range(8):
        expected[tuple(1 if j == i else 0 for j in range(8))] = 1
    assert k.as_dict() == expected


def test_character_counts_boxes():
    for pi in enumerate_partitions(3, 4):
        assert character(pi, 4).rank() == 4


def test_character_arity_mismatch():
    with pytest.raises(ArityMismatch):
        character(single_box(2), 4)


def test_corner_height(seven_part_size9):
    assert MultiPartition(4).corner_height() == 0
    assert single_box(3).corner_height() == 1
    assert seven_part_size9.corner_height() == 2


def test_cells_membership():
    pi = corner_column(2, 2)
    assert contains_cell(pi, (0, 0, 0)) and contains_cell(pi, (0, 0, 1))
    assert not contains_cell(pi, (0, 0, 2))
    assert not contains_cell(pi, (1, 0, 0))


def test_canonicalize_moves_box_to_first_axis():
    # character 1 + t_2 in dimension 4 canonicalizes to character 1 + t_1
    pi = MultiPartition(3, {(1, 1, 1): 1, (1, 2, 1): 1})
    assert canonicalize_axes(pi) == MultiPartition(3, {(1, 1, 1): 1, (2, 1, 1): 1})


def test_canonicalize_idempotent():
    for size in range(4):
        for pi in enumerate_partitions(3, size):
            canon = canonicalize_axes(pi)
            assert canonicalize_axes(canon) == canon


def test_canonicalize_orbit_invariant():
    # the canonical form is the orbit's member of greatest key()
    for pi in enumerate_partitions(3, 3) + enumerate_partitions(4, 4):
        canon = canonicalize_axes(pi)
        assert canon == orbit(pi)[-1]
        for member in orbit(pi):
            assert canonicalize_axes(member) == canon


def test_orbit_sizes_cover_the_count():
    for arity, size in [(2, 4), (3, 4), (7, 3), (11, 3)]:
        reps = canonical_representatives(arity, size)
        assert sum(c for _, c in reps) == len(bounded_partitions(arity, size, None))
        for rep, c in reps:
            assert len(orbit(rep)) == c


# arity 1-8 at sizes 0-6 (arity 8, size 6 holds 3,231 partitions), four
# grown at sizes 7-9, and two high arities: above arity size - 1 the
# representatives are padded, at and below it they are grown
_REP_GRID = [(n, s) for n in range(1, 9) for s in range(7)] + [
    (6, 7), (4, 8), (5, 8), (3, 9), (11, 4), (15, 3),
]


@pytest.mark.parametrize("arity,size", _REP_GRID)
def test_representatives_match_grouping_oracle(arity, size):
    got = canonical_representatives(arity, size)
    want = representatives_by_grouping(arity, size)
    assert [(r.arity, r.key(), c) for r, c in got] == [
        (r.arity, r.key(), c) for r, c in want
    ]


@pytest.mark.parametrize("arity", sorted({n for n, _ in _REP_GRID}))
def test_counts_match_enumeration(arity):
    top = max(s for n, s in _REP_GRID if n == arity)
    assert count_partitions(arity, top) == [
        len(bounded_partitions(arity, s, None)) for s in range(top + 1)
    ]
    assert count_partitions(arity, -1) == []


def test_counts_read_one_arity_up_match_direct_growth():
    # m_series(d - 2) reads the representatives of arity d - 1 that the
    # weights grow anyway; the growth at the arity itself is the oracle
    assert count_partitions(6, 9, 7) == count_partitions(6, 9) == [
        1, 1, 7, 28, 105, 357, 1197, 3857, 12300, 38430,
    ]
    for arity in range(1, 6):
        assert count_partitions(arity, 8, arity + 1) == count_partitions(arity, 8)


def test_representatives_never_enumerate(monkeypatch):
    # representatives and counts grow from the previous size and pad to
    # higher arities; any call of the full enumeration fails here, and
    # the input checks belong to canonical_representatives itself
    def refuse(arity, size):
        raise AssertionError("enumerate_partitions(%d, %d) called" % (arity, size))

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    canonical_representatives.cache_clear()
    try:
        assert sum(c for _, c in canonical_representatives(7, 5)) == 554
        assert count_partitions(6, 5) == [1, 1, 7, 28, 105, 357]
        for arity, size in [(3, -1), (0, 2)]:
            with pytest.raises(ValueError):
                canonical_representatives(arity, size)
    finally:
        canonical_representatives.cache_clear()


def test_binary_rep_examples():
    box = single_box(1)
    assert binary_rep_contains(box, (1, 1)) == 1
    assert binary_rep_contains(box, (1, 2)) == 0
    tall = corner_column(1, 3)
    assert binary_rep_contains(tall, (1, 3)) == 1
    assert binary_rep_contains(tall, (1, 4)) == 0
    with pytest.raises(ArityMismatch):
        binary_rep_contains(box, (1, 1, 1))
    with pytest.raises(ValueError):
        binary_rep_contains(box, (0, 1))


@pytest.mark.parametrize("arity,size", [(1, 8), (2, 6), (3, 5), (7, 4)])
def test_enumerated_partitions_pass_validation(arity, size):
    # enumerate_partitions builds without validation; rebuild each one with it
    found = enumerate_partitions(arity, size)
    assert found
    for pi in found:
        assert MultiPartition(arity, pi.heights, validate=True) == pi


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        MultiPartition(2, {(2, 1): 1})  # support not closed toward the corner
    with pytest.raises(ValueError):
        MultiPartition(2, {(1, 1): 1, (2, 1): 2})  # increases along axis 1
    with pytest.raises(ValueError):
        MultiPartition(2, {(1, 1): -1})
    with pytest.raises(ValueError):
        MultiPartition(2, {(0, 1): 1})
    with pytest.raises(ValueError):
        MultiPartition(2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        MultiPartition(0)


_POOL = [
    (arity, size) for arity in (1, 2, 3) for size in (1, 2, 3, 4)
]


@settings(max_examples=120, deadline=None)
@given(
    pool=st.sampled_from(_POOL),
    pick=st.integers(min_value=0, max_value=10**6),
    entry=st.integers(min_value=0, max_value=10**6),
    axis=st.integers(min_value=0, max_value=10**6),
)
def test_fuzz_monotonicity_violations_rejected(pool, pick, entry, axis):
    # raise a successor entry above its predecessor: must always be rejected
    arity, size = pool
    parts = enumerate_partitions(arity, size)
    pi = parts[pick % len(parts)]
    idx = sorted(pi.heights)[entry % len(pi.heights)]
    j = axis % arity
    succ = idx[:j] + (idx[j] + 1,) + idx[j + 1 :]
    heights = dict(pi.heights)
    heights[succ] = heights[idx] + 1
    with pytest.raises(ValueError):
        MultiPartition(arity, heights)


@settings(max_examples=120, deadline=None)
@given(pool=st.sampled_from(_POOL), pick=st.integers(min_value=0, max_value=10**6))
def test_active_axes_match_scan_oracle(pool, pick):
    # every member of an orbit, not only representatives, whose active
    # axes form a prefix
    parts = enumerate_partitions(*pool)
    pi = parts[pick % len(parts)]
    assert partitions._active_axes(pi) == active_axes_by_scan(pi)


def _rejects(validate):
    try:
        validate()
    except ValueError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(
    arity=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_validation_matches_neighbour_oracle(arity, data):
    # random height maps on the indices 1..3: the predecessor-only check
    # rejects exactly what the successor-and-predecessor check rejects
    index = st.tuples(*[st.integers(min_value=1, max_value=3)] * arity)
    heights = data.draw(st.dictionaries(index, st.integers(min_value=1, max_value=3), max_size=8))
    assert _rejects(lambda: MultiPartition(arity, heights)) == _rejects(
        lambda: validate_by_neighbours(arity, heights)
    )


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_validation_matches_neighbour_oracle_on_one_cell_edits(arity):
    # every partition of size <= 4 with one cell of the 1..3 box set to
    # each height 0..3: the edits that stay partitions and those that do
    # not sit right at the boundary the two checks must agree on
    cells = list(itertools.product(range(1, 4), repeat=arity))
    verdicts = set()
    for size in range(5):
        for pi in enumerate_partitions(arity, size):
            for cell in cells:
                for h in range(4):
                    heights = dict(pi.heights)
                    heights[cell] = h
                    got = _rejects(lambda: MultiPartition(arity, heights))
                    want = _rejects(
                        lambda: validate_by_neighbours(
                            arity, {k: v for k, v in heights.items() if v}
                        )
                    )
                    assert got == want, heights
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_validation_of_one_box_is_linear_in_the_arity():
    # checking both neighbours on every axis is quadratic in the arity:
    # about 19 s for this box on a 2-vCPU VM
    start = time.perf_counter()
    pi = MultiPartition(32767, {(1,) * 32767: 1})
    assert time.perf_counter() - start < 1.0
    assert pi.size == 1
    with pytest.raises(ValueError):
        MultiPartition(32767, {(1,) * 32766 + (2,): 1})


@pytest.mark.parametrize(
    "arity,size",
    [(n, s) for n in range(1, 7) for s in range(1, 8)] + [(11, 4), (15, 3), (40, 2)],
)
def test_size_bound_matches_rounds_oracle(arity, size):
    # the box of height h over index i fits in size s exactly when
    # h * prod(i) <= s; the enumeration must reach every such box
    reach = {}
    for pi in enumerate_partitions(arity, size):
        for idx, h in pi.heights.items():
            reach[idx] = max(reach.get(idx, 0), h)
    assert reach == size_bound_by_rounds(arity, size)


def test_enumeration_of_one_box_is_linear_in_the_arity():
    # one box at arity 32767: the cost must stay linear in the arity,
    # never one index tuple per axis
    start = time.perf_counter()
    found = enumerate_partitions(32767, 1)
    assert time.perf_counter() - start < 1.0
    assert found == [MultiPartition(32767, {(1,) * 32767: 1})]


def test_serialization_roundtrip(seven_part_size14):
    for pi in enumerate_partitions(2, 4) + [seven_part_size14]:
        obj = pi.to_json_obj()
        assert obj["arity"] == pi.arity
        assert json.loads(pi.serialize()) == obj["entries"]


def test_serialize_is_written_once_and_matches_json_dumps(seven_part_size14):
    for pi in enumerate_partitions(3, 4) + [seven_part_size14, MultiPartition(2)]:
        reference = json.dumps([list(e) for e in pi.key()], separators=(",", ":"))
        first = pi.serialize()
        assert first == reference
        # the kept string is returned, not rebuilt
        assert pi.serialize() is first


def test_serialize_matches_json_dumps_everywhere():
    def json_serial(pi):
        return json.dumps([list(e) for e in pi.key()], separators=(",", ":"))

    parts = [MultiPartition(3)]
    for arity in range(1, 5):
        for size in range(7):
            parts += enumerate_partitions(arity, size)
    # indices and heights of two digits
    parts.append(MultiPartition(2, {(i, 1): 12 - i for i in range(1, 12)}))
    parts.append(MultiPartition(1, {(1,): 10}))
    assert len(parts) == 883
    for pi in parts:
        assert pi.serialize() == json_serial(pi)


def test_bounded_enumeration():
    bound = {(1, 1): 2, (1, 2): 1, (2, 1): 1}
    for size in range(1, 5):
        for pi in bounded_partitions(2, size, bound):
            assert all(pi.heights.get(i, 0) <= h for i, h in bound.items())
            assert all(i in bound for i in pi.heights)
    assert len(bounded_partitions(2, 4, bound)) == 1

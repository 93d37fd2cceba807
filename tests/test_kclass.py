"""Laurent ring arithmetic and the equivariant vertex."""

import functools
from itertools import groupby
from math import gcd
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dtvertex import (
    DimensionMismatch,
    ExponentOverflow,
    KClass,
    MultiPartition,
    ZeroWeightDenominator,
    canonical_representatives,
    character,
    check_key_conjecture,
    cy_fixed_part,
    cy_reduce,
    enumerate_partitions,
    euler_class,
    vertex,
    vertex_half,
)
from dtvertex.kclass import (
    BIAS,
    FlatBlocks,
    _active_fold,
    _double_flat,
    cy_fold,
    half_vertex_orbits,
    interior_items,
    key_verdict,
    locus_fold,
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
    assert prod.as_dict() == expected
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
    assert z.bar().as_dict() == {tuple(-a for a in w): 1 for w in z.as_dict()}


def test_vertex_single_box_dim3():
    v = vertex(single_box(2), 3)
    expected = {
        (-1, 0, 0): 1, (0, -1, 0): 1, (0, 0, -1): 1,
        (-1, -1, 0): -1, (-1, 0, -1): -1, (0, -1, -1): -1,
    }
    assert v.as_dict() == expected


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


def test_vertex_half_identities():
    for d, max_size in [(3, 4), (4, 4), (5, 2), (8, 2)]:
        sgn = -1 if d % 2 else 1
        for n in range(1, max_size + 1):
            for pi in enumerate_partitions(d - 1, n):
                half = cy_reduce(vertex_half(pi, d))
                assert cy_reduce(vertex(pi, d)) == half + sgn * cy_reduce(half.bar())


def test_fixed_part_of_vertex_from_half_vertex():
    # cy(V) = cy(v) + (-1)^d cy(bar(v)) and bar fixes the fixed part, so the
    # weight pipeline may take the verdict of V from v for even d
    for d in range(3, 10):
        for n in range(1, 4):
            for pi in enumerate_partitions(d - 1, n):
                full, half = vertex(pi, d), vertex_half(pi, d)
                assert cy_fixed_part(full) == (1 + (-1) ** d) * cy_fixed_part(half)
                if d % 2 == 0:
                    assert key_verdict(full) == key_verdict(half)


def test_vertex_half_even_constant_term():
    for n in range(1, 5):
        for pi in enumerate_partitions(4, n):
            assert cy_fixed_part(vertex_half(pi, 5)) % 2 == 0


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


@functools.cache
def _partitions(arity, size):
    return enumerate_partitions(arity, size)


# Largest partition size drawn per dimension: the oracle needs about
# 0.2 s for a d = 12 partition of size 3.
_MAX_SIZE = {d: 5 if d <= 5 else 4 if d <= 8 else 3 if d <= 12 else 2 for d in range(3, 17)}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), d=st.integers(min_value=3, max_value=12))
def test_packed_classes_match_tuple_oracle(data, d):
    size = data.draw(st.integers(min_value=1, max_value=_MAX_SIZE[d]))
    pi = data.draw(st.sampled_from(_partitions(d - 1, size)))
    for packed, tuples in (
        (vertex(pi, d), oracles.vertex(pi, d)),
        (vertex_half(pi, d), oracles.vertex_half(pi, d)),
    ):
        assert packed.as_dict() == tuples
        assert packed.serialize() == oracles.serialize(tuples)
        reduced = oracles.cy_reduce(tuples)
        assert cy_reduce(packed).as_dict() == reduced
        assert cy_fixed_part(packed) == reduced.get((0,) * d, 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(min_value=3, max_value=16))
def test_vertex_matches_class_algebra_oracle(data, d):
    # the bound decides ExponentOverflow and the range cy_fixed_part scans,
    # so it must match along with the terms; size 0 is the empty partition
    size = data.draw(st.integers(min_value=0, max_value=_MAX_SIZE[d]))
    pi = data.draw(st.sampled_from(_partitions(d - 1, size)))
    for packed, algebra in (
        (vertex(pi, d), oracles.class_vertex(pi, d)),
        (vertex_half(pi, d), oracles.class_vertex_half(pi, d)),
    ):
        assert packed.terms == algebra.terms
        assert packed.bound == algebra.bound


def _minus_box_product(z, n):
    """Packed terms and bound of -Z * bar(Z) * prod_{i<n} (1 - t_i^-1), as
    vertex and vertex_half build them."""
    terms, flat, bound = _active_fold(z, n, -1)
    return _double_flat(terms, flat, z.dim), bound


def _assert_wraps_only_past_the_radix(n, axis, monkeypatch):
    # 2 * bound + n reaching 2^15 raises before any key is built, on the same
    # inputs as the class algebra; one step below, the product is exact
    # with exponents up to 2 * bound + 1, next to the radix edge
    d = 4
    top = (BIAS - n + 1) // 2  # least bound with 2 * bound + n >= 2^15
    z = t(d, axis, top) + 2 * t(d, axis, -top)
    with monkeypatch.context() as m:
        # bar(Z) is the first class with keys that Z does not have
        m.setattr(KClass, "bar", lambda self: pytest.fail("a key was built"))
        with pytest.raises(ExponentOverflow):
            _minus_box_product(z, n)
    with pytest.raises(ExponentOverflow):
        oracles.class_box_product(z, n)
    b = top - 1
    z = t(d, axis, b) + 2 * t(d, axis, -b)
    terms, bound = _minus_box_product(z, n)
    algebra = oracles.class_box_product(z, n)
    assert terms == (-algebra).terms
    assert bound == algebra.bound == 2 * b + n
    tuples = oracles.box_product(z.as_dict(), d, n)
    assert KClass._packed(d, terms, bound).as_dict() == {w: -c for w, c in tuples.items()}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_box_product_cannot_wrap(n, monkeypatch):
    _assert_wraps_only_past_the_radix(n, 0, monkeypatch)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_box_product_cannot_wrap_past_flat_axes(n, monkeypatch):
    # the exponents sit on the last axis, so axes 0-2 are flat and are
    # doubled by update; for n = 4 the active axis is folded first
    _assert_wraps_only_past_the_radix(n, 3, monkeypatch)


@pytest.mark.parametrize("d,max_size", [(4, 5), (5, 4), (8, 4), (12, 3)])
def test_box_product_matches_folded_oracle(d, max_size):
    # every partition, not only the canonical ones, so the active axes
    # need not be a prefix of the base axes
    for size in range(1, max_size + 1):
        for pi in _partitions(d - 1, size):
            z = character(pi, d)
            for n in (d - 1, d):
                assert _minus_box_product(z, n) == oracles.folded_box_product(z, n)


@pytest.mark.parametrize("d", [4, 5, 8, 12])
def test_box_product_matches_folded_oracle_by_hand(d):
    # the empty partition (every axis flat), a column on the height axis
    # only (every base axis flat) and a box on the last base axis only
    # (the one active base axis is not a prefix)
    arity = d - 1
    corner = (1,) * arity
    last = corner[:-1] + (2,)
    for pi in (
        MultiPartition(arity),
        corner_column(arity, 3),
        MultiPartition(arity, {corner: 1, last: 1}),
    ):
        z = character(pi, d)
        for n in (d - 1, d):
            assert _minus_box_product(z, n) == oracles.folded_box_product(z, n)


@pytest.mark.parametrize(
    "d,order,canonical",
    [(4, 7, True), (8, 5, True), (12, 3, True), (16, 2, True), (5, 4, False), (8, 3, False)],
)
def test_half_vertex_orbits_match_grouped_half_vertex(d, order, canonical):
    # the non-canonical sets take every partition, so the flat axes need
    # not be a suffix of the base axes
    for n in range(1, order + 1):
        parts = (
            [rep for rep, _ in canonical_representatives(d - 1, n)]
            if canonical
            else _partitions(d - 1, n)
        )
        for pi in parts:
            v = vertex_half(pi, d)
            orbits, flatmask, nv = half_vertex_orbits(pi, d)
            assert (orbits.as_dict(), flatmask) == oracles.flat_orbit_form(pi, d, v)
            assert orbits.bound == v.bound
            assert cy_fixed_part(orbits) == cy_fixed_part(v)
            # -v stays in blocks: the box product, the flat axes and -Z
            assert sum(1 << i for i in nv.flat) == flatmask
            expanded = oracles.expanded_blocks(nv)
            assert expanded.terms == (-v).terms and expanded.bound == nv.bound == v.bound


def test_half_vertex_orbits_compress_the_flat_axes():
    # at d = 16 every base axis of the single box is flat, and its half
    # vertex 1 - prod_{i<16} (1 - t_i^-1) has 2^15 - 1 terms but one orbit
    # per number j >= 1 of flat digits -1, with coefficient (-1)^(j + 1)
    orbits, flatmask, _ = half_vertex_orbits(single_box(15), 16)
    assert len(vertex_half(single_box(15), 16).terms) == 2**15 - 1
    assert flatmask == 2**15 - 1
    assert orbits.as_dict() == {
        tuple([-1] * j + [0] * (16 - j)): (-1) ** (j + 1) for j in range(1, 16)
    }


def test_vertex_is_built_in_full():
    # every verdict rests on V and v themselves, term by term: 925,178 is
    # the term count the benchmark traces on keyconj-d12
    full = sum(len(vertex(pi, 12).terms) for n in (1, 2, 3) for pi in _partitions(11, n))
    assert full == 925_178
    reps = [rep for n in range(1, 6) for rep, _ in canonical_representatives(7, n)]
    assert len(reps) == 34
    assert sum(len(vertex_half(rep, 8).terms) for rep in reps) == 23_636


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([3, 5, 7, 9, 11]))
def test_odd_euler_ratio_is_the_half_vertex_sign(data, d):
    # the sign build_z_odd sums, against the Euler class of -V
    size = data.draw(st.integers(min_value=1, max_value=_MAX_SIZE[d]))
    pi = data.draw(st.sampled_from(_partitions(d - 1, size)))
    c0 = cy_fixed_part(vertex_half(pi, d))
    assert oracles.euler_ratio_odd(pi, d) == (-1) ** ((pi.size + c0) % 2)


def test_exponent_outside_the_radix_raises():
    top = 2**15 - 1
    edge = KClass.monomial(3, (top, 0, -top))
    assert edge.as_dict() == {(top, 0, -top): 1}
    assert edge.coefficient((top, 0, -top)) == 1
    for w in ((top + 1, 0, 0), (0, 0, -top - 1)):
        with pytest.raises(ExponentOverflow):
            KClass.monomial(3, w)
        with pytest.raises(ExponentOverflow):
            KClass.one(3).shift(w)
    with pytest.raises(ExponentOverflow):
        edge.shift((0, 1, 0))
    half = KClass.monomial(3, (2**14, 0, 0))
    assert (half * KClass.monomial(3, (2**14 - 1, 0, 0))).as_dict() == {(top, 0, 0): 1}
    with pytest.raises(ExponentOverflow):
        half * half
    with pytest.raises(ExponentOverflow):
        cy_reduce(KClass.monomial(3, (2**14, 0, -(2**14))))


def test_fixed_part_at_dimension_16():
    reps = [rep for n in (1, 2) for rep, _ in canonical_representatives(15, n)]
    assert len(reps) == 3
    for rep in reps:
        assert cy_fixed_part(vertex(rep, 16)) == 0


# -- the folds of the packed codes -------------------------------------------------


def _grouped(items):
    """(key, summed value) for each key whose values do not cancel, in key
    order.  It sorts and never hashes a key: tuples with entries -1 and -2
    share hashes, so a dict of the reduced weights of a d = 16 half vertex
    takes minutes to fill (oracles.cy_reduce took 107 s for one on a
    2-vCPU VM)."""
    out = []
    for key, group in groupby(sorted(items, key=itemgetter(0)), key=itemgetter(0)):
        s = sum(c for _, c in group)
        if s:
            out.append((key, s))
    return out


def _tuple_cy_fold(terms, d):
    """cy_fold on {exponent tuple: coefficient}: oracles.cy_reduce's rule
    w -> w - w_d (1,..,1), then a weight w < 0 folds onto -w."""
    zero = (0,) * d
    fixed = odd = 0
    folded = []
    for w, c in terms.items():
        w = tuple(x - w[-1] for x in w)
        if w == zero:
            fixed += c
            continue
        if w < zero:
            w = tuple(-x for x in w)
            odd ^= c & 1
        folded.append((w, c))
    return fixed, odd, _grouped(folded)


def _tuple_locus_fold(terms, d):
    """locus_fold on {exponent tuple: coefficient}, crit as sorted pairs."""
    zero = (0,) * (d - 2)
    crit, rest = [], []
    odd = 0
    for w, c in terms.items():
        r = tuple(x - w[d - 2] for x in w[: d - 2])
        if r == zero:
            crit.append((w[d - 2] - w[d - 1], c))
            continue
        if r < zero:
            r = tuple(-x for x in r)
            odd ^= c & 1
        rest.append((r, c))
    return _grouped(crit), odd, _grouped(rest)


def _folds(a):
    """cy_fold and locus_fold of a class in the layout of the tuple folds."""
    fixed, odd, interior, pairs = cy_fold(a)
    prime = interior_items(interior) if interior else []
    crit, lodd, rest = locus_fold(a)
    return (
        (fixed, odd, sorted([*prime, *pairs])),
        (sorted((u, e) for u, e in crit.items() if e), lodd, sorted(rest)),
    )


def _negated(pairs):
    return [(key, -c) for key, c in pairs]


@pytest.mark.parametrize("d,order,count", [(4, 7, 141), (8, 5, 34), (12, 3, 7), (16, 2, 3)])
def test_folds_match_tuple_oracle(d, order, count):
    reps = [rep for n in range(1, order + 1) for rep, _ in canonical_representatives(d - 1, n)]
    assert len(reps) == count
    for rep in reps:
        terms = oracles.vertex_half(rep, d)
        expected = _tuple_cy_fold(terms, d), _tuple_locus_fold(terms, d)
        v = vertex_half(rep, d)
        assert _folds(v) == expected
        # the weight pipeline folds -v: every count negates, no parity moves
        (fixed, odd, pairs), (crit, lodd, rest) = expected
        assert _folds(-v) == (
            (-fixed, odd, _negated(pairs)), (_negated(crit), lodd, _negated(rest))
        )


HAND_FOLDS = {
    # weights on both sides of the origin fold onto one form, and the
    # form of (-2, -2, 0, 0) is not primitive
    "both_sides": (
        {(1, 0, 0, 0): 2, (-1, 0, 0, 0): 3, (2, 2, 0, 0): 1, (-2, -2, 0, 0): -4},
        (0, 1, [((1, 0, 0, 0), 5), ((2, 2, 0, 0), -3)]),
        ([], 1, [((1, 0), 5), ((2, 2), -3)]),
    ),
    # (3, 3, 3, 3) is the zero weight, and critical on the locus with
    # u = 0; (1, 1, 1, 0) is critical with u = 1
    "critical_u0": (
        {(3, 3, 3, 3): -2, (1, 1, 1, 0): 3, (0, 1, 0, 1): 1},
        (-2, 1, [((1, 0, 1, 0), 1), ((1, 1, 1, 0), 3)]),
        ([(0, -2), (1, 3)], 0, [((0, 1), 1)]),
    ),
    # (1, 0, 0, 0) and (2, 1, 1, 1) reduce to one weight, and (0, -1, 0, 0)
    # with (1, 0, 1, 1) to another, each net cancelling to zero
    "cancels": (
        {(1, 0, 0, 0): 1, (2, 1, 1, 1): -1, (0, -1, 0, 0): 2, (1, 0, 1, 1): -2},
        (0, 0, []),
        ([], 0, []),
    ),
}


@pytest.mark.parametrize("terms,cy,locus", HAND_FOLDS.values(), ids=list(HAND_FOLDS))
def test_folds_hand_cases(terms, cy, locus):
    assert _folds(KClass(4, terms)) == (cy, locus)
    assert (cy, locus) == (_tuple_cy_fold(terms, 4), _tuple_locus_fold(terms, 4))


def test_folds_check_the_bound():
    edge = KClass.monomial(4, (2**14 - 1, 0, 0, -(2**14 - 1)))
    cy_fold(edge)
    locus_fold(edge)
    wide = KClass.monomial(4, (2**14, 0, 0, 0))
    for fold in (cy_fold, locus_fold):
        with pytest.raises(ExponentOverflow):
            fold(wide)


@st.composite
def flat_blocks(draw):
    """A FlatBlocks of small exponents: any set of flat axes among the
    base axes, a suffix or not, and q and tail with w_i = 0 on each."""
    d = draw(st.integers(3, 6))
    flat = tuple(sorted(draw(st.sets(st.integers(0, d - 2)))))
    exponent = [st.just(0) if i in flat else st.integers(-2, 2) for i in range(d)]
    q, tail = (
        KClass(d, draw(st.dictionaries(st.tuples(*exponent), st.integers(-2, 2), max_size=6)))
        for _ in range(2)
    )
    return FlatBlocks(d, q.terms, flat, tail.terms, max(q.bound, tail.bound, 1))


@settings(max_examples=300, deadline=None)
@given(flat_blocks())
def test_block_folds_match_expanded_folds(blocks):
    # corners on the origin (flat value 0 or 1), blocks that fold on the
    # flat value alone, cancelling blocks and flat axes that are no suffix
    expanded = oracles.expanded_blocks(blocks)
    fixed, odd, interior, pairs = cy_fold(blocks)
    prime = interior_items(interior) if interior else []
    assert (fixed, odd, sorted(prime + pairs)) == oracles.expanded_cy_fold(expanded)
    # the interior codes are primitive, lead positive and share no form
    assert all(gcd(*w) == 1 and next(filter(None, w)) > 0 for w, _ in prime)
    forms = {w for w, _ in prime}
    assert len(forms) == len(prime)
    assert not forms & {tuple(x // gcd(*w) for x in w) for w, _ in pairs}
    crit, lodd, rest = locus_fold(blocks)
    crit = {u: e for u, e in crit.items() if e}
    assert (crit, lodd, sorted(rest)) == oracles.expanded_locus_fold(expanded)


@settings(max_examples=300, deadline=None)
@given(flat_blocks())
def test_lazy_interior_of_the_blocks(blocks):
    # euler_class keeps the interior codes unexpanded: its degree before
    # the expansion, the expanded factors against the eager route on the
    # materialized class, and a second read that adds nothing
    try:
        expected = oracles.reduced_euler_class(oracles.expanded_blocks(blocks))
    except ZeroWeightDenominator:
        with pytest.raises(ZeroWeightDenominator):
            euler_class(blocks)
        return
    e = euler_class(blocks)
    degree = e.total_degree()
    factors = e.factors
    assert degree == sum(factors.values())
    assert e == expected
    assert e.factors is factors and factors == expected.factors

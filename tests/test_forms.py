"""Euler classes as form products: square roots, insertions, specialization."""

import ast
import functools
import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtvertex import (
    DegenerateSamplePoint,
    FormProduct,
    KClass,
    NotAPerfectSquare,
    QPoly,
    ShapeMismatch,
    ZeroWeightDenominator,
    canonical_representatives,
    character,
    compute_weight,
    cy_reduce,
    enumerate_partitions,
    euler_class,
    omega_from_specialized,
    specialize,
    sqrt_form_product,
    taut_factor,
    vertex,
    weight_table,
)
import dtvertex.forms as forms_mod
from dtvertex.cache import record_from_weight, seal, source_digest
from dtvertex.forms import (
    _collect,
    _corner_column,
    _half_vertex_euler,
    _half_vertex_root,
    _locus_value,
    _specialize_half_vertex,
    cy_bundle_term,
    full_torus_ratio,
    vertex_fingerprint,
)
from dtvertex.kclass import (
    KEY_EULER_VANISHES,
    KEY_OK,
    KEY_VIOLATED,
    FlatBlocks,
    add_into,
    cy_fixed_part,
    cy_fold,
    half_vertex_blocks,
    interior_items,
    key_verdict,
    locus_fold,
)

from conftest import (
    cached_weight_table,
    corner_column,
    cube_on_three_axes,
    raised_cube_without_corner,
    single_box,
    weight_stages,
)
from oracles import (
    canonical_form,
    class_vertex_half,
    collected_euler_class,
    collected_specialize,
    euler_ratio_odd,
    evaluate_on_locus,
    expanded_blocks,
    expanded_cy_fold,
    expanded_fingerprint,
    expanded_locus_fold,
    fraction_evaluate,
    insertion_read_half_vertex,
    locus_value,
    orbit,
    qpoly_locus_value,
    reduced_euler_class,
    repr_fingerprint,
    times_raw_form,
)


def form(coeffs, ell=0):
    return (*coeffs, ell)


def poly(*coeffs):
    return QPoly([Fraction(c) for c in coeffs])


def test_canonical_form_convention():
    f, g = canonical_form((-2, -4), 0)
    assert f == form((1, 2)) and g == -2
    f, g = canonical_form((0, 0), 3)
    assert f == form((0, 0), 1) and g == 3
    assert canonical_form((0, 0), 0) is None


def _full_torus(a):
    """Euler class of a KClass over the full torus: every weight collected."""
    return _collect((w, 0, c) for w, c in a.items())


def test_euler_class_full_torus():
    a = KClass(2, {(1, 0): 1, (0, 1): 1})
    p = _full_torus(a)
    assert p.factors == {form((1, 0)): 1, form((0, 1)): 1}
    assert p.scalar == 1


def test_euler_class_of_box_vertex_is_minus_one():
    p = euler_class(-vertex(single_box(2), 3))
    assert not p.factors
    assert p.scalar == -1


def test_euler_class_zero_weight():
    a = KClass.one(3) + KClass.monomial(3, (1, 0, 0))
    assert euler_class(a).is_zero()
    with pytest.raises(ZeroWeightDenominator):
        euler_class(-KClass.one(3) + KClass.monomial(3, (1, 0, 0)))


def euler_class_by_fold(a, use_cy):
    """Reference Euler class: fold each form in with times_raw_form."""
    out = FormProduct(1)
    terms = cy_reduce(a).as_dict() if use_cy else a.as_dict()
    for w, c in sorted(terms.items()):
        out = times_raw_form(out, w[:-1] if use_cy else w, 0, c)
    return out


def test_euler_class_matches_fold_oracle():
    # the Calabi-Yau torus through euler_class, the full torus through
    # full_torus_ratio on the same representatives and _collect elsewhere
    reps = [
        (rep, d)
        for d, order in ((4, 4), (8, 3))
        for n in range(1, order + 1)
        for rep, _ in canonical_representatives(d - 1, n)
    ]
    zero_class = KClass.one(3) + KClass.monomial(3, (1, 0, 0))
    pole = -KClass.one(3) + KClass.monomial(3, (1, 0, 0))
    for a in [-vertex(rep, d) for rep, d in reps] + [zero_class]:
        assert euler_class(a) == euler_class_by_fold(a, True)
    for rep, d in reps:
        assert full_torus_ratio(rep, d) == euler_class_by_fold(-vertex(rep, d), False)
    assert _full_torus(zero_class) == euler_class_by_fold(zero_class, False)
    for collect, use_cy in ((euler_class, True), (_full_torus, False)):
        assert collect(zero_class).is_zero()
        with pytest.raises(ZeroWeightDenominator):
            collect(pole)
        with pytest.raises(ZeroWeightDenominator):
            euler_class_by_fold(pole, use_cy)


def test_full_torus_ratio_matches_collected_oracle():
    # V's forms collected with negated exponents, against -V collected
    count = 0
    for d in (3, 5, 7):
        for n in (1, 2):
            for pi in enumerate_partitions(d - 1, n):
                expected = collected_euler_class(-vertex(pi, d), use_cy=False)
                assert full_torus_ratio(pi, d) == expected
                count += 1
    assert count == 18


def _outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except (NotAPerfectSquare, ShapeMismatch, ZeroWeightDenominator) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("d,order", [(4, 7), (8, 5), (12, 3), (5, 4), (7, 4)])
def test_euler_class_matches_collector_oracle(d, order):
    # also against the reduce-then-fold route that the one-pass fold replaced
    for n in range(1, order + 1):
        for rep, _ in canonical_representatives(d - 1, n):
            for cls in (class_vertex_half(rep, d), vertex(rep, d)):
                for a in (cls, -cls):
                    got = _outcome(euler_class, a)
                    assert got == _outcome(collected_euler_class, a)
                    assert got == _outcome(reduced_euler_class, a)


# a +-w pair with an odd coefficient whose exponents cancel; w and 2w;
# the zero weight (also as the diagonal (1,1,1)) with either sign
EDGE_CLASSES = [
    (KClass(3, {(1, 0, 0): 1, (-1, 0, 0): -1}), FormProduct(-1)),
    (KClass(3, {(1, 2, 0): 1, (2, 4, 0): -1}), FormProduct(Fraction(1, 2))),
    (KClass(3, {(1, 2, 0): 1, (-2, -4, 0): 1}), FormProduct(-2, {form((1, 2)): 2})),
    (KClass(3, {(0, 0, 0): 2, (1, 0, 0): 1}), FormProduct(0)),
    (KClass(3, {(1, 1, 1): -1, (1, 0, 0): 1}), None),
    # w and 2w merge to net zero, then 3w adds the form back
    (
        KClass(3, {(1, 2, 0): 1, (2, 4, 0): -1, (3, 6, 0): 1}),
        FormProduct(Fraction(3, 2), {form((1, 2)): 1}),
    ),
]


def test_euler_class_edge_cases():
    for a, expected in EDGE_CLASSES:
        if expected is None:
            with pytest.raises(ZeroWeightDenominator):
                euler_class(a)
        else:
            assert euler_class(a) == expected


small_classes = st.integers(2, 5).flatmap(
    lambda d: st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * d), st.integers(-3, 3), max_size=8
    ).map(lambda terms: KClass(d, terms))
)


@settings(max_examples=200, deadline=None)
@given(small_classes)
@example(EDGE_CLASSES[0][0])
@example(EDGE_CLASSES[1][0])
@example(EDGE_CLASSES[2][0])
@example(EDGE_CLASSES[3][0])
@example(EDGE_CLASSES[4][0])
@example(EDGE_CLASSES[5][0])
def test_euler_class_matches_collector_on_random_classes(a):
    got = _outcome(euler_class, a)
    assert got == _outcome(collected_euler_class, a)
    assert got == _outcome(reduced_euler_class, a)


def test_euler_class_sums_the_zero_weight_before_ruling():
    # (1,1,1) and (2,2,2) both reduce to the zero weight: only their net
    # coefficient rules, as in the reduced class
    cancel = KClass(3, {(1, 1, 1): 1, (2, 2, 2): -1, (1, 0, 0): 1})
    assert euler_class(cancel) == reduced_euler_class(cancel) == FormProduct(1, {form((1, 0)): 1})
    for c, expected in ((3, FormProduct(0)), (-3, None)):
        a = KClass(3, {(1, 1, 1): 1, (2, 2, 2): c - 1, (1, 0, 0): 1})
        if expected is None:
            with pytest.raises(ZeroWeightDenominator, match="^zero weight with exponent -3$"):
                euler_class(a)
        else:
            assert euler_class(a) == expected
        assert _outcome(euler_class, a) == _outcome(reduced_euler_class, a)


def test_form_products_never_alias_a_held_dict():
    # euler_class and the collector hand over a dict of their own; every
    # product, root and scaling gets a dict that no caller holds
    for a in (EDGE_CLASSES[5][0], -class_vertex_half(raised_cube_without_corner(7), 8)):
        e = euler_class(a)
        again = euler_class(a)
        assert e == again and e.factors is not again.factors
        assert e.factors is not a.terms
        e.factors.clear()
        assert euler_class(a) == again
    held = {form((1, 2)): 2, form((0, 1)): -2}
    p = FormProduct(4, held)
    assert p.factors == held and p.factors is not held
    for q in (
        p * FormProduct(1),
        FormProduct(1) * p,
        p * p,
        p.scaled(3),
        sqrt_form_product(p, 0),
    ):
        assert q.factors is not held and q.factors is not p.factors
    assert held == {form((1, 2)): 2, form((0, 1)): -2} == p.factors


def test_specialize_matches_collector_oracle():
    # the default insertion gives a value everywhere, so it is also
    # multiplied by a critical form (zero value), its inverse (pole), a
    # critical form over the form of 2 + ell (pole through the division)
    # and a non-critical form (not_constant); the twists reach all of these
    kinds = {"default": set(), "twist": set()}
    for d, order in ((4, 5), (8, 3)):
        crit = (1,) * (d - 1) + (0,)
        extras = [
            {},
            {crit: 1},
            {crit: -1},
            {crit: 1, (2,) * (d - 1) + (1,): -1},
            {(1,) + (0,) * (d - 1): 1},
        ]
        twists = [(1,) + (0,) * (d - 1), (0,) * (d - 2) + (1, 0), (0,) * d]
        for n in range(1, order + 1):
            for rep, _ in canonical_representatives(d - 1, n):
                root = _half_vertex_root(half_vertex_blocks(rep, d), n)
                product = taut_factor(rep, d, ell_units=1) * root
                cases = [("default", product * FormProduct(1, f)) for f in extras]
                cases += [("twist", cy_bundle_term(rep, d, u)) for u in twists]
                for kind, p in cases:
                    got = _outcome(specialize, p)
                    assert got == _outcome(collected_specialize, p)
                    if isinstance(got, QPoly):
                        kinds[kind].add("zero" if got.is_zero() else "value")
                    else:
                        kinds[kind].add(got[1])
    outcomes = {
        "zero",
        "value",
        "diagnostic pole instead of a polynomial",
        "diagnostic not_constant instead of a polynomial",
    }
    assert kinds == {"default": outcomes, "twist": outcomes}


def _as_half_vertex_blocks(pi, d, nv):
    """-v, a KClass, in the shape that half_vertex_blocks gives: the tail
    -Z, Z the character of the box stack, and q the rest, -v + Z."""
    z = character(pi, d)
    q = nv + z
    return FlatBlocks(d, q.terms, (), (-z).terms, q.bound)


def _specialized_by_oracle(pi, d, v):
    """specialize(taut * root), or None for the zero root: the route that
    _specialize_half_vertex replaced."""
    root = _half_vertex_root(-v, pi.size)
    if root.is_zero():
        return None
    return specialize(taut_factor(pi, d, ell_units=1) * root)


@pytest.mark.parametrize("d,order,count", [(4, 7, 141), (8, 5, 34), (12, 3, 7), (16, 2, 3)])
def test_specialize_half_vertex_matches_specialize_oracle(d, order, count):
    # the blocks of the weight pipeline against both oracles, on -v as a
    # KClass, tail and all, and on the blocks
    seen = 0
    for n in range(1, order + 1):
        for rep, _ in canonical_representatives(d - 1, n):
            v = class_vertex_half(rep, d)
            nv = half_vertex_blocks(rep, d)
            got = _outcome(_specialize_half_vertex, rep, d, nv)
            assert got == _outcome(_specialized_by_oracle, rep, d, v)
            assert got == _outcome(insertion_read_half_vertex, rep, d, -v)
            assert got == _outcome(insertion_read_half_vertex, rep, d, nv)
            seen += 1
    assert seen == count


def test_critical_boxes_off_the_corner_column_at_d4():
    # sizes 8 and 9 at d = 4 are the first with a critical box off the
    # corner column, at base (2, 2, 2): the shipped route keeps its unit
    # u + ell, u = 1 - m, where the insertion read restricts its form
    reps = [rep for n in (8, 9) for rep, _ in canonical_representatives(3, n)]
    assert len(reps) == 451
    off_corner = 0
    for rep in reps:
        nv = half_vertex_blocks(rep, 4)
        got = _outcome(_specialize_half_vertex, rep, 4, nv)
        assert got == _outcome(insertion_read_half_vertex, rep, 4, nv)
        assert got == _outcome(_specialized_by_oracle, rep, 4, -expanded_blocks(nv))
        off_corner += (2, 2, 2) in rep.heights
    assert off_corner > 0


def _is_suffix(flat, d):
    return flat == tuple(range(d - 1 - len(flat), d - 1))


# (d, order, canonical, partitions): the non-canonical sets take every
# partition, so the flat axes need not be a suffix of the base axes
BLOCK_SETS = [
    (4, 7, True, 141), (8, 6, True, 74), (12, 3, True, 7), (16, 2, True, 3),
    (4, 5, False, 100), (5, 4, False, 66), (6, 3, False, 28), (7, 3, False, 36),
    (8, 3, False, 45), (12, 2, False, 13),
]


@pytest.mark.parametrize(
    "d,order,canonical,count", BLOCK_SETS, ids=["d%d-n%d-%s" % s[:3] for s in BLOCK_SETS]
)
def test_block_route_matches_expanded_route(d, order, canonical, count):
    # the folds and the fixed part of the unexpanded -v against the folds,
    # the fixed part, e(-v) and the specialized value of the materialized
    # -v (oracles.expanded_blocks)
    parts = [
        pi
        for n in range(1, order + 1)
        for pi in (
            [rep for rep, _ in canonical_representatives(d - 1, n)]
            if canonical
            else enumerate_partitions(d - 1, n)
        )
    ]
    assert len(parts) == count
    suffixes = set()
    for pi in parts:
        nv = half_vertex_blocks(pi, d)
        suffixes.add(_is_suffix(nv.flat, d))
        # the tail is -Z, so the weight's fold of Q alone is the fold of
        # -v + Z that it replaced
        z = character(pi, d).terms
        assert nv.tail == {k: -c for k, c in z.items()}
        cancelled = nv._replace(tail=add_into(dict(nv.tail), z.items()))
        assert locus_fold(nv._replace(tail={})) == locus_fold(cancelled)
        a = expanded_blocks(nv)
        assert cy_fixed_part(nv) == cy_fixed_part(a)
        fixed, odd, interior, pairs = cy_fold(nv)
        prime = interior_items(interior) if interior else []
        assert (fixed, odd, sorted([*prime, *pairs])) == expanded_cy_fold(a)
        crit, odd, rest = locus_fold(nv)
        crit = {u: e for u, e in crit.items() if e}
        assert (crit, odd, sorted(rest)) == expanded_locus_fold(a)
        assert _outcome(euler_class, nv) == _outcome(reduced_euler_class, a)
        got = _outcome(_specialize_half_vertex, pi, d, nv)
        assert got == _outcome(_specialized_by_oracle, pi, d, -a)
        assert got == _outcome(insertion_read_half_vertex, pi, d, nv)
    assert suffixes == ({True} if canonical else {True, False})


def test_weight_never_expands_the_half_vertex(monkeypatch):
    # with _double_flat refused, the cold weight and the bundle term at
    # d = 8 still come out: only flat axes that are no suffix of the base
    # axes (never so for a canonical representative) are multiplied out
    import dtvertex.kclass as kclass_mod

    reps = [rep for n in range(1, 7) for rep, _ in canonical_representatives(7, n)]
    u = (1,) + (0,) * 7
    expected = [(compute_weight(rep, 8), cy_bundle_term(rep, 8, u)) for rep in reps]
    odd_one = next(
        pi
        for pi in enumerate_partitions(7, 2)
        if not _is_suffix(half_vertex_blocks(pi, 8).flat, 8)
    )
    cy_bundle_term(odd_one, 8, u)

    def refuse(*args):
        raise AssertionError("the flat axes were multiplied out")

    monkeypatch.setattr(kclass_mod, "_double_flat", refuse)
    for rep, (w, term) in zip(reps, expected):
        got = compute_weight(rep, 8)
        assert (got.verdict, got.omega, got.sign) == (w.verdict, w.omega, w.sign)
        assert cy_bundle_term(rep, 8, u) == term
    with pytest.raises(AssertionError, match="multiplied out"):
        cy_bundle_term(odd_one, 8, u)

    # with cy_fold refused too, no weight at d = 8 or d = 24 folds e(-v):
    # the weight reads its zero test, parity and sign off the corners; the
    # bundle term multiplies the root by the tautological factor, so it folds
    deep = [rep for n in range(1, 3) for rep, _ in canonical_representatives(23, n)]
    weights = [(rep, 8, w) for rep, (w, _) in zip(reps, expected)]
    weights += [(rep, 24, compute_weight(rep, 24)) for rep in deep]
    blocky = next(rep for rep in reps if cy_fold(half_vertex_blocks(rep, 8))[2])

    def refuse_fold(a):
        raise AssertionError("e(-v) was folded")

    monkeypatch.setattr(kclass_mod, "cy_fold", refuse_fold)
    monkeypatch.setattr(forms_mod, "cy_fold", refuse_fold)
    for rep, d, w in weights:
        got = compute_weight(rep, d)
        assert (got.verdict, got.omega, got.sign) == (w.verdict, w.omega, w.sign)
    with pytest.raises(AssertionError, match="was folded"):
        cy_bundle_term(blocky, 8, u)


def _evaluated(evaluate, *args):
    try:
        return evaluate(*args)
    except (DegenerateSamplePoint, ValueError) as exc:
        return type(exc), str(exc)


fraction = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1)),
        st.integers(-3, 3).filter(bool),
        max_size=5,
    ),
    fraction,
    st.tuples(fraction, fraction),
)
def test_evaluate_matches_fraction_oracle(factors, scalar, lams):
    # integer products over one denominator against Fraction products,
    # zero forms and forms with an ell part included: the first one in
    # order rules
    p = FormProduct(scalar, factors)
    got = _evaluated(p.evaluate, lams)
    assert got == _evaluated(fraction_evaluate, p, lams)


@pytest.mark.parametrize("d,order", [(4, 7), (8, 6), (12, 4), (16, 2)])
def test_lazy_interior_matches_eager_route(monkeypatch, d, order):
    # e(-v) defers cy_fold and the merge: its zero test, sign and degree
    # before the first read, a locus_fold of the same blocks that leaves
    # the fold's result alone, the folded factors against the eager route
    # on the materialized -v, and one fold for any number of reads
    folds = []

    def counted(a):
        folds.append(a)
        return cy_fold(a)

    monkeypatch.setattr(forms_mod, "cy_fold", counted)
    blocky = 0
    for n in range(1, order + 1):
        for rep, _ in canonical_representatives(d - 1, n):
            nv = half_vertex_blocks(rep, d)
            e = _outcome(euler_class, nv)
            expected = _outcome(reduced_euler_class, expanded_blocks(nv))
            if not isinstance(e, FormProduct):
                assert e == expected
                continue
            facts = (e.is_zero(), e.sign(), e.total_degree())
            assert facts == (expected.is_zero(), expected.sign(), expected.total_degree())
            blocky += cy_fold(nv)[2] is not None
            locus_fold(nv._replace(tail={}))
            folds.clear()
            factors = e.factors
            assert e == expected
            assert e.factors is factors and factors == expected.factors
            assert folds == ([] if e.is_zero() else [nv])
    assert blocky


@pytest.mark.parametrize("d,order,count", [(4, 7, 141), (8, 5, 34), (12, 3, 7)])
def test_locus_value_matches_qpoly_oracle(monkeypatch, d, order, count):
    # the (scalar, units, exps) that the weight pipeline hands to
    # _locus_value, for every representative whose root is not zero
    seen = []

    def recorded(scalar, units, exps):
        seen.append((scalar, dict(units), dict(exps)))
        return _locus_value(scalar, units, exps)

    monkeypatch.setattr(forms_mod, "_locus_value", recorded)
    reps = 0
    for n in range(1, order + 1):
        for rep, _ in canonical_representatives(d - 1, n):
            _outcome(_specialize_half_vertex, rep, d, half_vertex_blocks(rep, d))
            reps += 1
    assert reps == count and seen
    for args in seen:
        assert _outcome(_locus_value, *args) == _outcome(qpoly_locus_value, *args)


# (scalar, units, exps) -> the value or the diagnostic; units are keyed by
# (c, ell_part) for the ell-scalar c + ell_part * ell
HAND_LOCI = {
    "positive_net": (Fraction(3), {(0, 1): 2, (1, 1): -1}, {}, "zero"),
    "negative_net": (Fraction(3), {(0, 1): -1}, {}, "diagnostic pole instead of a polynomial"),
    "surviving_direction": (
        Fraction(1),
        {(0, 1): 1, (2, 0): -1},
        {(1, 0): 1, (0, 1): 0},
        "diagnostic not_constant instead of a polynomial",
    ),
    # (2 + 2 ell) / (1 + ell): a bottom that divides
    "bottom_divides": (Fraction(1, 3), {(2, 2): 1, (1, 1): -1}, {}, poly(Fraction(2, 3))),
    # ell / (1 + ell): a bottom that leaves a remainder
    "bottom_pole": (
        Fraction(1),
        {(0, 1): 1, (1, 1): -1},
        {},
        "diagnostic pole instead of a polynomial",
    ),
    # ell-parts -1, 0 and 1: (1 - ell) ell / 9, and a cancelled direction
    "ell_parts": (
        Fraction(9, 2),
        {(1, -1): 1, (0, 1): 1, (3, 0): -2},
        {(1, 2): 0},
        poly(0, Fraction(1, 2), Fraction(-1, 2)),
    ),
    # (2 - ell)^2 (1 + ell) / 5^3
    "powers": (
        Fraction(-1),
        {(2, -1): 2, (1, 1): 1, (5, 0): -3},
        {},
        poly(4, 0, -3, 1) * Fraction(-1, 125),
    ),
    "empty": (Fraction(-7, 4), {}, {}, poly(Fraction(-7, 4))),
}


@pytest.mark.parametrize("scalar,units,exps,expected", HAND_LOCI.values(), ids=list(HAND_LOCI))
def test_locus_value_hand_cases(scalar, units, exps, expected):
    pair = scalar.numerator, scalar.denominator
    got = _outcome(_locus_value, pair, units, exps)
    assert got == _outcome(qpoly_locus_value, pair, units, exps)
    if expected == "zero":
        assert got == QPoly.zero()
    elif isinstance(expected, str):
        assert got == (ShapeMismatch, expected)
    else:
        assert got == expected
        assert all(type(c) is Fraction for c in got.coeffs)


# the single box at d = 4 against hand-built half vertices: its insertion
# is the unit ell, so a critical code of v with coefficient 1 balances it
HAND_VERTICES = {
    # w_3 - w_4 = -2: a critical code with u < 0, folded with its sign
    "negative_unit": ({(0, 0, 0, 2): 1}, poly(0, Fraction(1, 2))),
    # the diagonal codes cancel at the zero weight, and (1,0,0,0) and
    # (1,0,0,-1) restrict to the same direction (1,0) and cancel there
    "cancelling_codes": (
        {(0, 0, 0, 2): 1, (1, 1, 1, 1): 1, (2, 2, 2, 2): -1, (1, 0, 0, 0): 1, (1, 0, 0, -1): -1},
        poly(0, Fraction(1, 2)),
    ),
    # a restricted direction that nothing cancels
    "surviving_direction": (
        {(0, 0, 0, 2): 1, (1, 0, 0, 0): 1, (3, 1, 1, 1): 1},
        "diagnostic not_constant instead of a polynomial",
    ),
    # two critical codes in the denominator of e(-v) against one unit
    "pole": (
        {(0, 0, 0, 2): 1, (0, 0, 0, 1): 1, (0, 0, 0, -1): 1},
        "diagnostic pole instead of a polynomial",
    ),
    # net zero weight in e(-v): the root is the zero class
    "zero_root": ({(1, 1, 1, 1): -1, (0, 0, 0, 2): 1}, "zero"),
}


@pytest.mark.parametrize("terms,expected", HAND_VERTICES.values(), ids=list(HAND_VERTICES))
def test_specialize_half_vertex_hand_cases(terms, expected):
    pi = single_box(3)
    v = KClass(4, terms)
    got = _outcome(_specialize_half_vertex, pi, 4, _as_half_vertex_blocks(pi, 4, -v))
    assert got == _outcome(_specialized_by_oracle, pi, 4, v)
    assert got == _outcome(insertion_read_half_vertex, pi, 4, -v)
    if expected == "zero":
        assert got is None
    elif isinstance(expected, str):
        assert got == (ShapeMismatch, expected)
    else:
        assert got == expected


def test_specialize_half_vertex_keeps_the_parity_error():
    # an odd total degree of e(-v) against |pi| = 1 has no root
    v = KClass(4, {(0, 0, 0, 2): 1, (1, 0, 0, 0): 1})
    nv = _as_half_vertex_blocks(single_box(3), 4, -v)
    got = _outcome(_specialize_half_vertex, single_box(3), 4, nv)
    assert got == (NotAPerfectSquare, "scalar -1/4 is not a rational square")
    assert got == _outcome(_specialized_by_oracle, single_box(3), 4, v)
    assert got == _outcome(insertion_read_half_vertex, single_box(3), 4, -v)


def test_full_cube_at_d4_agrees_and_is_not_a_column():
    b = cube_on_three_axes(3)
    v = class_vertex_half(b, 4)
    value = _specialize_half_vertex(b, 4, half_vertex_blocks(b, 4))
    assert value == _specialized_by_oracle(b, 4, v)
    assert abs(value.leading()) == Fraction(1, 2) and value.degree() == 2
    with pytest.raises(ShapeMismatch) as expected:
        omega_from_specialized(_specialized_by_oracle(b, 4, v), b)
    with pytest.raises(ShapeMismatch) as got:
        compute_weight(b, 4)
    assert str(got.value) == str(expected.value)
    # only the compute_weight route names the partition
    assert expected.value.partition is None
    assert got.value.partition == b.serialize()


# |value| at ell as a function of ell, on the locus
ORDER_8_VALUES = [
    ("A", 4, lambda ell: Fraction(ell * (ell - 1), 2)),
    ("A", 8, lambda ell: Fraction(ell * (ell - 1), 2)),
    ("A", 12, lambda ell: Fraction(ell * (ell - 1), 2)),
    ("B", 4, lambda ell: Fraction(ell * (ell + 1), 2)),
    ("B", 8, lambda ell: Fraction(ell)),
]


@pytest.mark.parametrize(
    "name,d,expected", ORDER_8_VALUES, ids=["%s-d%d" % (n, d) for n, d, _ in ORDER_8_VALUES]
)
def test_locus_value_oracle_on_the_order_8_partitions(name, d, expected):
    make = raised_cube_without_corner if name == "A" else cube_on_three_axes
    pi = make(d - 1)
    assert pi.size == 8
    # 101^j keeps every restricted form non-zero (its entries are small)
    frees = [101**j for j in range(d - 2)]
    fast = _specialize_half_vertex(pi, d, half_vertex_blocks(pi, d))
    signs = set()
    for ell in (2, 3, 4):
        got = locus_value(pi, d, ell, frees)
        assert abs(got) == expected(ell)
        signs.add(fast(Fraction(ell)) / got)
    # the root fixes one sign per partition
    assert signs in ({1}, {-1})
    if d == 4:
        assert locus_value(pi, d, 3, [7, -5]) == locus_value(pi, d, 3, frees)


def test_sqrt_of_single_box_dim4():
    # hand expansion: the even part contributes the three pair weights
    # squared over the squared singles and the all-ones direction
    p = euler_class(-vertex(single_box(3), 4))
    expected = {
        form((1, 1, 0)): 2, form((1, 0, 1)): 2, form((0, 1, 1)): 2,
        form((1, 0, 0)): -2, form((0, 1, 0)): -2, form((0, 0, 1)): -2,
        form((1, 1, 1)): -2,
    }
    assert p.factors == expected
    assert p.scalar == -1
    w = sqrt_form_product(p, 1)
    assert w.factors == {f: e // 2 for f, e in expected.items()}
    assert w.scalar == 1
    assert w * w == p.scaled(-1)


def test_sqrt_squares_back():
    for n in range(1, 4):
        for rep, _ in canonical_representatives(7, n):
            p = euler_class(-vertex(rep, 8))
            w = sqrt_form_product(p, n)
            assert (w * w).scaled((-1) ** n) == p


def test_sqrt_of_empty_is_one():
    from dtvertex import MultiPartition

    p = euler_class(-vertex(MultiPartition(7), 8))
    w = sqrt_form_product(p, 0)
    assert not w.factors and w.scalar == 1


def test_half_vertex_root_matches_sqrt_of_full_euler_class():
    # the weight's root, read off e(-v) of the half vertex, against the
    # square root of e(-V) that conftest.weight_stages takes
    count = 0
    for d, order in ((4, 6), (8, 4), (12, 2)):
        for n in range(1, order + 1):
            for rep, _ in canonical_representatives(d - 1, n):
                nv = half_vertex_blocks(rep, d)
                stages = weight_stages(rep, d)
                # FormProduct equality compares the factors and the scalar
                assert _half_vertex_root(nv, n) == stages.sqrt
                with pytest.raises(NotAPerfectSquare):
                    _half_vertex_root(nv, n + 1)
                with pytest.raises(NotAPerfectSquare):
                    sqrt_form_product(stages.euler, n + 1)
                count += 1
    assert count == 69 + 16 + 3


def test_sqrt_rejects_odd_exponent():
    p = times_raw_form(FormProduct(), (1, 0, 0), 0, 1)
    with pytest.raises(NotAPerfectSquare):
        sqrt_form_product(p, 0)


def test_sqrt_rejects_non_square_scalar():
    p = FormProduct(2)
    with pytest.raises(NotAPerfectSquare):
        sqrt_form_product(p, 0)


def test_taut_factor_single_box():
    p = taut_factor(single_box(3), 4, ell_units=1)
    assert p.factors == {form((0, 0, 0), 1): 1}
    assert p.scalar == 1


def test_taut_factor_vanishing_at_unit_twist():
    # integer twist -1 on the last axis kills any corner column of height 2
    assert taut_factor(corner_column(3, 2), 4, u=(0, 0, 0, -1)).is_zero()
    assert not taut_factor(single_box(3), 4, u=(0, 0, 0, -1)).is_zero()


def test_taut_factor_matches_fold_oracle():
    def by_fold(pi, d, u, ell_units):
        out = FormProduct(1)
        for cell in pi.cells():
            w = [a + b for a, b in zip(u, cell)]
            out = times_raw_form(out, [x - w[-1] for x in w[:-1]], ell_units, 1)
        return out

    cases = [
        (rep, d, (0,) * d, k)
        for d, order in ((4, 4), (8, 3))
        for n in range(1, order + 1)
        for rep, _ in canonical_representatives(d - 1, n)
        for k in (0, 1)
    ]
    cases.append((corner_column(3, 2), 4, (0, 0, 0, -1), 0))
    for pi, d, u, k in cases:
        assert taut_factor(pi, d, u=u, ell_units=k) == by_fold(pi, d, u, k)
    assert by_fold(corner_column(3, 2), 4, (0, 0, 0, -1), 0).is_zero()


def _fold_raw(raw):
    """The product of raw forms folded in one at a time by times_raw_form."""
    out = FormProduct(1)
    for coeffs, ell_part, e in raw:
        out = times_raw_form(out, coeffs, ell_part, e)
    return out


def _scaled_raw(coeffs, ell_part, scale, e):
    return [scale * c for c in coeffs], scale * ell_part, e


# a scale other than +-1 makes the form non-primitive, a negative one
# (or a negative entry) may put a negative entry first
raw_forms = st.lists(
    st.one_of(
        st.builds(
            _scaled_raw,
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            st.integers(-1, 1),
            st.sampled_from([1, -1, 2, -6]),
            st.integers(-3, 3),
        ),
        st.builds(lambda e: ((0, 0, 0), 0, e), st.integers(-2, 2)),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(raw_forms)
@example([((2, -4, 0), 0, 0), ((1, 1, 0), 1, 2)])
@example([((-2, 4, 0), 2, 3), ((1, -2, 0), -1, -1)])
@example([((3, 0, 6), 0, 2), ((1, 0, 2), 0, -2)])
@example([((1, 0, 0), 0, 1), ((0, 0, 0), 0, 2), ((0, 0, 0), 0, -1)])
@example([((1, 0, 0), 0, 1), ((0, 0, 0), 0, 0)])
@example([((0, 0, 0), 0, -2)])
def test_collect_matches_fold_oracle(raw):
    assert _outcome(_collect, raw) == _outcome(_fold_raw, raw)


def test_collect_edge_cases():
    # exponent 0 leaves no form and no multiplier, even non-primitive
    assert _collect([((2, -4, 0), 0, 0)]) == FormProduct(1)
    # a negative first entry flips the form, its exponent's parity the sign
    assert _collect([((-2, 4, 0), 0, 3)]) == FormProduct(-8, {form((1, -2, 0)): 3})
    assert _collect([((0, 0, 0), 0, 2), ((0, 0, 0), 0, -1)]).is_zero()
    for e in (0, -1):
        with pytest.raises(ZeroWeightDenominator, match="zero weight with exponent %d$" % e):
            _collect([((1, 0, 0), 0, 1), ((0, 0, 0), 0, e)])


def test_forms_reads_no_packed_code():
    # the packed exponent code is read in kclass alone: forms works on
    # integer vectors, through kclass's public folds
    with open(forms_mod.__file__) as fh:
        tree = ast.parse(fh.read())
    from_kclass = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert "struct" not in [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "struct"
            if node.level == 1 and node.module == "kclass":
                from_kclass += [a.name for a in node.names]
    assert {"cy_fold", "locus_fold", "half_vertex_blocks", "block_bytes"} <= set(from_kclass)
    for name in from_kclass:
        assert not name.startswith("_") and name not in ("BIAS", "DIGIT", "RADIX_BITS")
    # nor a packed dict: the fingerprint hashes the bytes of block_bytes
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attrs & {"terms", "q", "tail"}


def test_taut_factor_empty():
    from dtvertex import MultiPartition

    p = taut_factor(MultiPartition(3), 4, ell_units=1)
    assert not p.factors and p.scalar == 1


def test_specialize_constant():
    assert specialize(FormProduct(Fraction(7, 3))) == poly(Fraction(7, 3))


def test_specialize_single_box_weight():
    assert weight_stages(single_box(3), 4).value == poly(0, -1)  # -ell
    w = compute_weight(single_box(3), 4)
    assert w.omega == 1 and w.sign == 1


def test_specialize_diagnostics():
    not_constant = "diagnostic not_constant instead of a polynomial"
    pole = "diagnostic pole instead of a polynomial"
    hang = times_raw_form(FormProduct(), (1, 0, 0), 0, 1)
    with pytest.raises(ShapeMismatch, match="^%s$" % not_constant):
        specialize(hang)
    with pytest.raises(ShapeMismatch, match="^%s$" % pole):
        specialize(times_raw_form(FormProduct(), (1, 1, 1), 0, -1))
    vanish = times_raw_form(FormProduct(), (1, 1, 1), 0, 2)
    assert specialize(vanish).is_zero()
    # critical exponents balance; the ell-parts leave 1/ell (a pole) or ell
    inv_ell = times_raw_form(FormProduct(), (0, 0, 0), 1, -1)
    with pytest.raises(ShapeMismatch, match="^%s$" % pole):
        specialize(times_raw_form(inv_ell, (1, 1, 1), 0, 1))
    ell = times_raw_form(FormProduct(), (0, 0, 0), 1, 1)
    assert specialize(times_raw_form(ell, (1, 1, 1), 0, -1)) == poly(0, 1)


def test_specialize_zero_class():
    assert specialize(FormProduct(0)).is_zero()


def test_zero_euler_class_is_zero_weight(monkeypatch):
    import dtvertex.forms as forms_mod

    monkeypatch.setattr(forms_mod, "euler_class", lambda a: FormProduct(0))
    w = compute_weight(corner_column(3, 2), 4)
    assert (w.verdict, w.omega, w.sign) == (KEY_EULER_VANISHES, Fraction(0), 1)


def test_weight_table_covers_canonical_representatives():
    table = weight_table(4, 3)
    assert list(table) == [
        rep.serialize() for n in range(1, 4) for rep, _ in canonical_representatives(3, n)
    ]
    for key, w in table.items():
        assert w.partition.serialize() == key and w.d == 4
    value = weight_stages(single_box(3), 4).value
    assert table[single_box(3).serialize()].signed_poly(1) == value


def test_omega_extraction(seven_part_size9):
    value = weight_stages(seven_part_size9, 8).value
    assert value == poly(0, 64, -64)  # 64*ell*(1 - ell)
    w = compute_weight(seven_part_size9, 8)
    assert w.omega == 64 and w.sign == 1
    assert omega_from_specialized(poly(0, -1), single_box(3)) == (Fraction(1), 1)


def test_omega_extraction_shape_errors():
    with pytest.raises(ShapeMismatch, match="unexpected zero weight"):
        omega_from_specialized(QPoly.zero(), single_box(3))
    with pytest.raises(ShapeMismatch, match="unexpected zero weight"):
        omega_from_specialized(QPoly.zero(), corner_column(3, 2))
    with pytest.raises(ShapeMismatch, match="corner column"):
        omega_from_specialized(poly(0, 0, 1), single_box(3))


def test_euler_ratio_odd_values():
    assert euler_ratio_odd(single_box(2), 3) == -1
    assert euler_ratio_odd(single_box(4), 5) == -1
    assert euler_ratio_odd(corner_column(2, 2), 3) == 1


def test_euler_ratio_odd_rejects_even_dimension():
    with pytest.raises(ValueError):
        euler_ratio_odd(single_box(3), 4)


def test_degree_zero_homogeneity():
    for n in range(1, 4):
        for rep, _ in canonical_representatives(7, n):
            s = weight_stages(rep, 8)
            assert s.taut.total_degree() == n
            assert s.sqrt.total_degree() == -n
            assert s.product.total_degree() == 0


def test_oriented_weights_are_orbit_invariant():
    # the raw square root may flip sign across the orbit (its scalar
    # normalization is basis-dependent); the oriented weight may not
    for rep, _ in canonical_representatives(7, 3):
        w = compute_weight(rep, 8)
        value = weight_stages(rep, 8).value
        for member in orbit(rep):
            wm = compute_weight(member, 8)
            assert wm.omega == w.omega
            assert weight_stages(member, 8).value * wm.sign == value * w.sign


def test_random_point_oracle_agreement():
    from dtvertex import DegenerateSamplePoint

    rng = random.Random(20240)
    for n in range(1, 4):
        for rep, _ in canonical_representatives(7, n):
            s = weight_stages(rep, 8)
            for ell in (2, 3, 7):
                expected = s.value(Fraction(ell))
                hits = tries = 0
                while hits < 3:
                    tries += 1
                    assert tries < 64
                    frees = tuple(
                        Fraction(rng.randint(-10**6, 10**6)) for _ in range(6)
                    )
                    try:
                        got = evaluate_on_locus(s.product, frees, ell)
                    except DegenerateSamplePoint:
                        continue
                    assert got == expected
                    hits += 1


def test_signed_poly_matches_specialized_value():
    # the term rebuilt from (omega, sign) is the specialized value itself
    count = 0
    for d, order in ((4, 5), (8, 5), (12, 3)):
        for w in cached_weight_table(d, order).values():
            value = weight_stages(w.partition, d).value
            for s in (1, -1):
                assert w.signed_poly(s) == value * s
            count += 1
    assert count == 74


@pytest.mark.parametrize("d,order,count,others", [(8, 7, 160, (12, 16)), (4, 6, 69, (8,))])
def test_weight_of_a_shape_agrees_across_dimensions(d, order, count, others):
    # a shape is a representative's rows on its active axes; padded with
    # index 1 on the added axes it keeps its omega and verdict in every
    # larger d = 0 mod 4 (the sign of the root may differ).  An oracle
    # only: no check computes a weight at one d from another
    from dtvertex import MultiPartition

    weights = cached_weight_table(d, order).values()
    assert len(weights) == count
    for w in weights:
        for e in others:
            pad = (1,) * (e - d)
            shape = MultiPartition(e - 1, {i + pad: h for i, h in w.partition.heights.items()})
            got = compute_weight(shape, e)
            assert (got.omega, got.verdict) == (w.omega, w.verdict)


def test_corner_column_is_the_falling_factorial():
    for h in range(9):
        column = QPoly.one()
        for i in range(h):
            column = column * poly(-i, 1)
        assert _corner_column(h) == column
        assert _corner_column(h) is _corner_column(h)
        assert all(type(c) is Fraction for c in _corner_column(h).coeffs)


def test_signed_poly_leaves_the_memoized_column_alone():
    pi = raised_cube_without_corner(7)
    h = pi.corner_height()
    column = _corner_column(h)
    num, den = column.num, column.den
    w = compute_weight(pi, 8)
    for s in (1, -1):
        assert w.signed_poly(s) == _corner_column(h) * (s * w.sign * w.omega)
        assert w.signed_poly(s) is not _corner_column(h)
    assert _corner_column(h) is column and column.num is num and column.den is den
    assert (num, den) == ((0, -1, 1), 1)
    assert _corner_column(h) == poly(0, -1, 1)


def _block_forms():
    """(nv, v) of every representative of d = 4 n <= 5, d = 8 n <= 4 and
    d = 12 n <= 3: nv the blocks of -v, v the expanded half vertex."""
    return [
        (half_vertex_blocks(rep, d), class_vertex_half(rep, d))
        for d, order in ((4, 5), (8, 4), (12, 3))
        for n in range(1, order + 1)
        for rep, _ in canonical_representatives(d - 1, n)
    ]


def test_fingerprint_separates_what_the_repr_fingerprint_separates():
    # the block digest against the digests of the expanded half vertex
    # that schemas 3 and 4 hashed
    digests = [
        (vertex_fingerprint(nv), expanded_fingerprint(v), repr_fingerprint(v))
        for nv, v in _block_forms()
    ]
    assert len(digests) == 56
    # equal block digests exactly when the expanded digests are equal
    assert len({new for new, _, _ in digests}) == len(set(digests))
    assert len({old for _, old, _ in digests}) == len(set(digests))
    assert len({old for _, _, old in digests}) == len(set(digests))


def test_fingerprint_ignores_insertion_order():
    for nv, _ in _block_forms()[::7]:
        backwards = nv._replace(
            q=dict(reversed(list(nv.q.items()))), tail=dict(reversed(list(nv.tail.items())))
        )
        assert list(backwards.q) != list(nv.q) or len(nv.q) == 1
        assert vertex_fingerprint(backwards) == vertex_fingerprint(nv)


def test_fingerprint_changes_with_one_code_coefficient_or_dim():
    for nv, _ in _block_forms()[::7]:
        digest = vertex_fingerprint(nv)
        for part in ("q", "tail"):
            terms = getattr(nv, part)
            first, last = min(terms), max(terms)
            moved = dict(terms)
            moved[last + 1] = moved.pop(last)
            assert vertex_fingerprint(nv._replace(**{part: moved})) != digest
            bumped = dict(terms)
            bumped[first] += 1 if bumped[first] != -1 else 2
            assert vertex_fingerprint(nv._replace(**{part: bumped})) != digest
        assert vertex_fingerprint(nv._replace(dim=nv.dim + 1)) != digest
    # the same codes and coefficients in the same order, split otherwise
    # between q and the tail: only the counts of the prefix tell them apart
    a, b = sorted(half_vertex_blocks(corner_column(3, 2), 4).q)[:2]
    split = FlatBlocks(4, {a: 1}, (0, 1, 2), {b: 2}, 2)
    assert vertex_fingerprint(split) != vertex_fingerprint(split._replace(q={a: 1, b: 2}, tail={}))


def test_fingerprint_changes_with_the_flat_mask():
    # the flat axes fix the size of every block, so the same q and tail
    # under another set of flat axes stand for another half vertex
    for nv, _ in _block_forms()[::7]:
        digest = vertex_fingerprint(nv)
        for i in range(nv.dim - 1):
            flat = tuple(sorted(set(nv.flat) ^ {i}))
            assert vertex_fingerprint(nv._replace(flat=flat)) != digest
    # a column of two boxes leaves no base axis, and two boxes side by
    # side leave the first one (canonical representatives put their
    # active axes first)
    flats = {half_vertex_blocks(rep, 4).flat for rep, _ in canonical_representatives(3, 2)}
    assert flats == {(0, 1, 2), (1, 2)}


def test_verdict_is_read_from_the_euler_class_of_minus_v():
    # on every representative the verdict of e(-v) is key_verdict of the
    # expanded half vertex, which is the verdict of V for even d
    for d, order in ((4, 7), (8, 5), (12, 3), (16, 2)):
        for n in range(1, order + 1):
            for rep, _ in canonical_representatives(d - 1, n):
                expected = key_verdict(class_vertex_half(rep, d))
                assert compute_weight(rep, d).verdict == expected == KEY_OK


@pytest.mark.parametrize("shift", [1, 2, -1, -2])
def test_perturbed_fixed_part_gives_the_verdict(monkeypatch, shift):
    # a fixed weight added to the tail of -v: c0 < 0 makes e(-v) the zero
    # class, the verdict euler_vanishes and omega 0; c0 > 0 puts the zero
    # weight in the denominator of e(-v), the verdict violated
    origin = next(iter(KClass.one(4).terms))
    real = forms_mod.half_vertex_blocks

    def perturbed(pi, d):
        nv = real(pi, d)
        return nv._replace(tail={**nv.tail, origin: nv.tail.get(origin, 0) + shift})

    monkeypatch.setattr(forms_mod, "half_vertex_blocks", perturbed)
    for rep, _ in canonical_representatives(3, 3):
        nv = perturbed(rep, 4)
        c0 = -cy_fixed_part(nv)
        assert c0 == -shift
        verdict = key_verdict(-expanded_blocks(nv))
        if c0 < 0:
            w = compute_weight(rep, 4)
            assert (w.verdict, w.omega, w.sign) == (verdict, Fraction(0), 1)
            assert verdict == KEY_EULER_VANISHES
        else:
            assert verdict == KEY_VIOLATED
            with pytest.raises(ZeroWeightDenominator) as exc:
                compute_weight(rep, 4)
            assert exc.value.partition == rep.serialize()
            assert str(exc.value) == "zero weight with exponent %d" % -c0


def test_compute_weight_never_negates_a_class(monkeypatch):
    # -v comes straight from the box product (half_vertex_blocks), so the
    # cold weight makes no negated copy of the half vertex
    reps = [rep for n in range(1, 6) for rep, _ in canonical_representatives(7, n)]
    expected = [compute_weight(rep, 8) for rep in reps]

    def refuse(self):
        raise AssertionError("KClass.__neg__ ran")

    monkeypatch.setattr(KClass, "__neg__", refuse)
    for rep, w in zip(reps, expected):
        got = compute_weight(rep, 8)
        assert (got.verdict, got.omega, got.sign) == (w.verdict, w.omega, w.sign)


def test_cache_record_format():
    # schema 7: the fingerprint seals the key with the package source, the
    # sha256 of b"digest:4:[[1,1,1,1]]", digest the sha256 of every *.py
    # file of the package in name order, each as b"name:length:" and its bytes
    sources = sorted(Path(forms_mod.__file__).parent.glob("*.py"), key=lambda p: p.name)
    assert {"cache.py", "forms.py", "kclass.py", "ratpoly.py"} <= {p.name for p in sources}
    h = hashlib.sha256()
    for path in sources:
        data = path.read_bytes()
        h.update(b"%s:%d:" % (path.name.encode(), len(data)) + data)
    assert source_digest() == h.hexdigest()
    key = "%s:4:[[1,1,1,1]]" % h.hexdigest()
    assert record_from_weight(compute_weight(single_box(3), 4)) == {
        "schema": 7,
        "d": 4,
        "partition": "[[1,1,1,1]]",
        "fingerprint": hashlib.sha256(key.encode()).hexdigest(),
        "verdict": "ok",
        "omega": "1",
        "sign": 1,
    }
    # the dimension and the partition both enter the seal
    assert len({seal(4, "[[1,1,1,1]]"), seal(8, "[[1,1,1,1]]"), seal(4, "[[1,1,1,2]]")}) == 3


def test_schema_6_fingerprint_of_the_single_box():
    # the fingerprint of schema 6 hashed the blocks of -v.  The single box
    # at d = 4 leaves no base axis, so its q is the one code of (0,0,0,0)
    # with coefficient 1, its flat axes are 1, 2 and 3 (mask 7) and its
    # tail the code of (0,0,0,0) with coefficient -1: the digest is the
    # sha256 of b"4:7:1:1:", the bytes 80 00 80 00 80 00 80 00 twice and
    # "[1, -1]"
    nv = half_vertex_blocks(single_box(3), 4)
    raw = b"4:7:1:1:" + bytes.fromhex("8000" * 8) + b"[1, -1]"
    assert vertex_fingerprint(nv) == hashlib.sha256(raw).hexdigest()
    assert vertex_fingerprint(nv) == (
        "26fd1b1b70b55c8cc346f32ad8169128e9a2fbf0daecb9f1894d3cd54f81a7b9"
    )


def _rank_holds(pi, d):
    """Whether e(-v), v the half vertex, is zero or of total degree -|pi|."""
    e = euler_class(half_vertex_blocks(pi, d))
    return e.is_zero() or e.total_degree() == -pi.size


@pytest.mark.parametrize(
    "d,order,canonical,count", BLOCK_SETS, ids=["d%d-n%d-%s" % s[:3] for s in BLOCK_SETS]
)
def test_half_vertex_euler_class_has_degree_minus_size(d, order, canonical, count):
    # -v = Q prod_F (1 - t_i^-1) - Z and the box product over the d - 1
    # base axes has rank 0, so rank(-v) = -|pi|: a non-zero e(-v) has total
    # degree -|pi|, and (-1)^|pi| e(-V) = e(-v)^2 is always a square, so the
    # NotAPerfectSquare branch of _half_vertex_euler never fires on a real
    # half vertex
    parts = [
        pi
        for n in range(1, order + 1)
        for pi in (
            [rep for rep, _ in canonical_representatives(d - 1, n)]
            if canonical
            else enumerate_partitions(d - 1, n)
        )
    ]
    assert len(parts) == count
    for pi in parts:
        assert _rank_holds(pi, d)
        _half_vertex_euler(half_vertex_blocks(pi, d), pi.size)


@functools.cache
def _all_partitions(arity, size):
    return enumerate_partitions(arity, size)


# (d, largest size) of the partitions drawn for the rank of -v
_RANK_SIZE = {d: 6 if d <= 4 else 5 if d <= 8 else 3 for d in range(3, 17)}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.integers(min_value=3, max_value=16))
def test_half_vertex_euler_class_has_degree_minus_size_on_drawn_partitions(data, d):
    size = data.draw(st.integers(min_value=0, max_value=_RANK_SIZE[d]))
    pi = data.draw(st.sampled_from(_all_partitions(d - 1, size)))
    assert _rank_holds(pi, d)

"""Euler classes as form products: square roots, insertions, specialization."""

import random
from fractions import Fraction

import pytest

from dtvertex import (
    FormProduct,
    KClass,
    LinearForm,
    NotAPerfectSquare,
    QPoly,
    ShapeMismatch,
    ZeroWeightDenominator,
    canonical_representatives,
    compute_weight,
    cy_reduce,
    euler_class,
    euler_ratio_odd,
    evaluate_on_locus,
    omega_from_specialized,
    orbit,
    specialize,
    sqrt_form_product,
    taut_factor,
    vertex,
)
from dtvertex.forms import SpecializedValue, canonical_form

from conftest import corner_column, single_box


def form(coeffs, ell=0):
    return LinearForm(tuple(coeffs), ell)


def poly(*coeffs):
    return QPoly([Fraction(c) for c in coeffs])


def test_canonical_form_convention():
    f, g = canonical_form((-2, -4), 0)
    assert f == form((1, 2)) and g == -2
    f, g = canonical_form((0, 0), 3)
    assert f == form((0, 0), 1) and g == 3
    assert canonical_form((0, 0), 0) is None


def test_euler_class_full_torus():
    a = KClass(2, {(1, 0): 1, (0, 1): 1})
    p = euler_class(a, use_cy=False)
    assert p.factors == {form((1, 0)): 1, form((0, 1)): 1}
    assert p.scalar == 1


def test_euler_class_of_box_vertex_is_minus_one():
    p = euler_class(-vertex(single_box(2), 3), use_cy=True)
    assert p.is_scalar()
    assert p.scalar == -1


def test_euler_class_zero_weight():
    a = KClass.one(3) + KClass.monomial(3, (1, 0, 0))
    assert euler_class(a, use_cy=True).is_zero
    with pytest.raises(ZeroWeightDenominator):
        euler_class(-KClass.one(3) + KClass.monomial(3, (1, 0, 0)), use_cy=True)


def euler_class_by_fold(a, use_cy):
    """Reference Euler class: fold each form in with times_raw_form."""
    out = FormProduct.constant(1)
    terms = cy_reduce(a).terms if use_cy else a.terms
    for w, c in sorted(terms.items()):
        out = out.times_raw_form(w[:-1] if use_cy else w, 0, c)
    return out


def test_euler_class_matches_fold_oracle():
    classes = [
        -vertex(rep, d)
        for d, order in ((4, 4), (8, 3))
        for n in range(1, order + 1)
        for rep, _ in canonical_representatives(d - 1, n)
    ]
    zero_class = KClass.one(3) + KClass.monomial(3, (1, 0, 0))
    pole = -KClass.one(3) + KClass.monomial(3, (1, 0, 0))
    for use_cy in (True, False):
        for a in classes + [zero_class]:
            assert euler_class(a, use_cy) == euler_class_by_fold(a, use_cy)
        assert euler_class(zero_class, use_cy).is_zero
        with pytest.raises(ZeroWeightDenominator):
            euler_class(pole, use_cy)
        with pytest.raises(ZeroWeightDenominator):
            euler_class_by_fold(pole, use_cy)


def test_sqrt_of_single_box_dim4():
    # hand expansion: the even part contributes the three pair weights
    # squared over the squared singles and the all-ones direction
    p = euler_class(-vertex(single_box(3), 4), use_cy=True)
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
            p = euler_class(-vertex(rep, 8), use_cy=True)
            w = sqrt_form_product(p, n)
            assert (w * w).scaled((-1) ** n) == p


def test_sqrt_of_empty_is_one():
    from dtvertex import MultiPartition

    p = euler_class(-vertex(MultiPartition(7), 8), use_cy=True)
    w = sqrt_form_product(p, 0)
    assert w.is_scalar() and w.scalar == 1


def test_sqrt_rejects_odd_exponent():
    p = FormProduct().times_raw_form((1, 0, 0), 0, 1)
    with pytest.raises(NotAPerfectSquare):
        sqrt_form_product(p, 0)


def test_sqrt_rejects_non_square_scalar():
    p = FormProduct.constant(2)
    with pytest.raises(NotAPerfectSquare):
        sqrt_form_product(p, 0)


def test_taut_factor_single_box():
    p = taut_factor(single_box(3), 4, ell_units=1)
    assert p.factors == {form((0, 0, 0), 1): 1}
    assert p.scalar == 1


def test_taut_factor_vanishing_at_unit_twist():
    # integer twist -1 on the last axis kills any corner column of height 2
    assert taut_factor(corner_column(3, 2), 4, u=(0, 0, 0, -1)).is_zero
    assert not taut_factor(single_box(3), 4, u=(0, 0, 0, -1)).is_zero


def test_taut_factor_empty():
    from dtvertex import MultiPartition

    p = taut_factor(MultiPartition(3), 4, ell_units=1)
    assert p.is_scalar() and p.scalar == 1


def test_specialize_constant():
    v = specialize(FormProduct.constant(Fraction(7, 3)))
    assert v.is_value() and v.value == poly(Fraction(7, 3))


def test_specialize_single_box_weight():
    w = compute_weight(single_box(3), 4)
    assert w.value.value == poly(0, -1)  # -ell
    assert w.omega == 1 and w.sign == 1


def test_specialize_diagnostics():
    hang = FormProduct().times_raw_form((1, 0, 0), 0, 1)
    out = specialize(hang)
    assert out.diagnostic == "not_constant"
    pole = FormProduct().times_raw_form((1, 1, 1), 0, -1)
    out = specialize(pole)
    assert out.diagnostic == "pole"
    vanish = FormProduct().times_raw_form((1, 1, 1), 0, 2)
    out = specialize(vanish)
    assert out.is_value() and out.value.is_zero()
    # critical exponents balance; the ell-parts leave 1/ell (a pole) or ell
    inv_ell = FormProduct().times_raw_form((0, 0, 0), 1, -1)
    out = specialize(inv_ell.times_raw_form((1, 1, 1), 0, 1))
    assert out.diagnostic == "pole" and out.direction is None
    ell = FormProduct().times_raw_form((0, 0, 0), 1, 1)
    out = specialize(ell.times_raw_form((1, 1, 1), 0, -1))
    assert out.is_value() and out.value == poly(0, 1)


def test_specialize_zero_class():
    out = specialize(FormProduct.zero())
    assert out.is_value() and out.value.is_zero() and out.from_zero


def test_omega_extraction(seven_part_size9):
    w = compute_weight(seven_part_size9, 8)
    assert w.value.value == poly(0, 64, -64)  # 64*ell*(1 - ell)
    assert w.omega == 64 and w.sign == 1
    v = SpecializedValue(value=poly(0, -1))
    assert omega_from_specialized(v, single_box(3)) == (Fraction(1), 1)


def test_omega_extraction_shape_errors():
    with pytest.raises(ShapeMismatch):
        omega_from_specialized(
            SpecializedValue(value=QPoly.zero()), single_box(3)
        )
    with pytest.raises(ShapeMismatch):
        omega_from_specialized(
            SpecializedValue(value=poly(0, 0, 1)), single_box(3)
        )
    with pytest.raises(ShapeMismatch):
        omega_from_specialized(
            SpecializedValue(diagnostic="not_constant", direction=[1, 0]),
            single_box(3),
        )
    v = SpecializedValue(value=QPoly.zero(), from_zero=True)
    assert omega_from_specialized(v, corner_column(3, 2)) == (Fraction(0), 1)


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
            w = compute_weight(rep, 8)
            assert w.taut.total_degree() == n
            assert w.sqrt.total_degree() == -n
            assert w.product.total_degree() == 0


def test_oriented_weights_are_orbit_invariant():
    # the raw square root may flip sign across the orbit (its scalar
    # normalization is basis-dependent); the oriented weight may not
    for rep, _ in canonical_representatives(7, 3):
        w = compute_weight(rep, 8)
        for member in orbit(rep):
            wm = compute_weight(member, 8)
            assert wm.omega == w.omega
            assert wm.value.value * wm.sign == w.value.value * w.sign


def test_random_point_oracle_agreement():
    from dtvertex import DegenerateSamplePoint

    rng = random.Random(20240)
    for n in range(1, 4):
        for rep, _ in canonical_representatives(7, n):
            w = compute_weight(rep, 8)
            for ell in (2, 3, 7):
                expected = w.value.value(Fraction(ell))
                hits = tries = 0
                while hits < 3:
                    tries += 1
                    assert tries < 64
                    frees = tuple(
                        Fraction(rng.randint(-10**6, 10**6)) for _ in range(6)
                    )
                    try:
                        got = evaluate_on_locus(w.product, frees, ell)
                    except DegenerateSamplePoint:
                        continue
                    assert got == expected
                    hits += 1


def test_form_product_serialization_roundtrip():
    w = compute_weight(single_box(7), 8)
    for p in (w.sqrt, w.taut, w.product, FormProduct.zero()):
        assert FormProduct.from_serialized(p.serialize()) == p
    # the cache record format: a constant scalar is a one-term ratio
    assert compute_weight(single_box(3), 4).taut.serialize() == {
        "is_zero": False,
        "scalar": {"num": ["1"], "den": ["1"]},
        "factors": [[[0, 0, 0], 1, 1]],
    }
    assert FormProduct.zero().serialize() == {
        "is_zero": True,
        "scalar": {"num": [], "den": ["1"]},
        "factors": [],
    }
    v = w.value
    assert SpecializedValue.from_serialized(v.serialize()) == v

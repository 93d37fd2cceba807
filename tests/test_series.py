"""Truncated series arithmetic and the generating-series assemblies."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtvertex import (
    FormProduct,
    QPoly,
    TruncatedSeries,
    build_z_4k,
    build_z_odd,
    check_power_law,
    enumerate_partitions,
    m_series,
    positive_omega_orientation,
    series_pow_ell,
    target_4k,
    target_odd,
)
from dtvertex.forms import cy_bundle_term, full_torus_ratio

from conftest import cached_weight_table
from oracles import series_pow, series_table, z_odd


def consts(*values):
    return TruncatedSeries.from_fractions([Fraction(v) for v in values])


def test_m_series_examples():
    assert m_series(2, 4).constants() == [1, 1, 3, 6, 13]
    assert m_series(0, 3).constants() == [1, 1, 1, 1]
    assert m_series(1, 5).constants() == [1, 1, 2, 3, 5, 7]


def test_series_ring_ops():
    a = consts(1, 2, 3)
    b = consts(1, -1, 0)
    assert (a * b).constants() == [1, 1, 1]
    assert (a + b).constants() == [2, 1, 3]
    assert (a - b).constants() == [0, 3, 3]
    assert a.alternate().constants() == [1, -2, 3]


def test_qpoly_coefficients_are_exact_fractions():
    # ints and bools are wrapped, a Fraction is kept as it is; zeros on
    # top are trimmed either way
    half = Fraction(1, 2)
    p = QPoly([3, True, half, False, 0])
    assert p.coeffs == (3, 1, half) and p.degree() == 2
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs[2] is half
    for q in (p * p, p + 1, p - p, -p, p * 2, p * half, p.shift(2), QPoly.const(True)):
        assert all(type(c) is Fraction for c in q.coeffs)
    assert QPoly([False, Fraction(0)]).is_zero()
    assert QPoly([True]) == QPoly.one() == 1


@st.composite
def rational_series(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    coeffs = [
        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        for _ in range(n)
    ]
    return TruncatedSeries(n, [QPoly.const(c) for c in [0] + coeffs])


@settings(max_examples=40, deadline=None)
@given(s=rational_series())
def test_exp_log_roundtrip(s):
    assert s.exp().log() == s
    with_one = TruncatedSeries.one(s.order) + s
    assert with_one.log().exp() == with_one


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        consts(1, 1).exp()
    with pytest.raises(ValueError):
        consts(0, 1).log()


def test_series_pow_ell_basics():
    m = m_series(2, 4).alternate()
    p = series_pow_ell(m, 4)
    assert p.coefficient(1) == QPoly((Fraction(0), Fraction(-1)))  # -ell
    assert p.eval_ell(0) == TruncatedSeries.one(4)
    assert p.eval_ell(1) == m


@pytest.mark.parametrize("k", [2, 3, 4])
def test_series_pow_ell_matches_integer_powers(k):
    m = m_series(3, 4).alternate()
    assert series_pow_ell(m, 4).eval_ell(k) == series_pow(m, k)


def test_series_pow_ell_negative_exponent():
    m = m_series(1, 4)
    inv = series_pow_ell(m, 4).eval_ell(-1)
    assert (inv * m) == TruncatedSeries.one(4)


def test_build_z_odd_values():
    assert build_z_odd(3, 5).constants() == [1, -1, 3, -6, 13, -24]
    assert build_z_odd(5, 2).constants() == [1, -1, 5]
    assert build_z_odd(3, 0).constants() == [1]


@pytest.mark.parametrize("d,order", [(3, 5), (5, 3), (7, 2)])
def test_build_z_odd_matches_target(d, order):
    assert build_z_odd(d, order) == target_odd(d, order)


@pytest.mark.parametrize("d,order", [(3, 6), (5, 5), (7, 4)])
def test_build_z_odd_matches_per_partition_oracle(d, order):
    # orbit representatives weighted by orbit size against every partition
    assert build_z_odd(d, order) == z_odd(d, order)


def test_build_z_4k_first_order():
    weights = cached_weight_table(8, 1)
    z = build_z_4k(8, 1, positive_omega_orientation(weights), weights)
    assert z.coefficient(0) == QPoly.one()
    assert z.coefficient(1) == QPoly((Fraction(0), Fraction(-1)))


def test_build_z_4k_matches_target_small():
    weights = cached_weight_table(8, 2)
    z = build_z_4k(8, 2, positive_omega_orientation(weights), weights)
    assert z == target_4k(8, 2)
    # q^2 coefficient is ell^2/2 + 13 ell / 2
    assert z.coefficient(2) == QPoly((Fraction(0), Fraction(13, 2), Fraction(1, 2)))


def test_check_power_law_reference_fits_itself():
    # a series equal to the reference power has exponent 1
    terms1 = [FormProduct(-1)]
    terms2 = [FormProduct(3)]
    verdict, cert = check_power_law(terms1, terms2, Fraction(3), 2, seed=5)
    assert verdict == "fits"
    assert cert["exponent_values"] == ["1", "1", "1"]


def test_check_power_law_prints_huge_values_exactly():
    # values past the 4300-digit int -> str limit are printed in full, and
    # the limit is back in force afterwards
    limit = sys.get_int_max_str_digits()
    e = Fraction(10**5000, 3)
    terms1 = [FormProduct(-e)]
    terms2 = [FormProduct(e * e / 2)]
    verdict, cert = check_power_law(terms1, terms2, Fraction(1, 2), 2, seed=5)
    assert verdict == "fits"
    assert cert["q1_values"] == [["-1" + "0" * 5000 + "/3"]] * 3
    assert cert["exponent_values"] == ["1" + "0" * 5000 + "/3"] * 3
    assert sys.get_int_max_str_digits() == limit


def test_check_power_law_full_torus():
    for d, expected in [(3, "fits"), (5, "no E exists"), (7, "no E exists")]:
        terms1 = [full_torus_ratio(p, d) for p in enumerate_partitions(d - 1, 1)]
        terms2 = [full_torus_ratio(p, d) for p in enumerate_partitions(d - 1, 2)]
        verdict, cert = check_power_law(
            terms1, terms2, Fraction(len(terms2)), d, seed=1
        )
        assert verdict == expected, d
        assert len(cert["points"]) >= 3


def test_check_power_law_generic_twist_dim8():
    u = (1,) + (0,) * 7
    terms1 = [cy_bundle_term(p, 8, u) for p in enumerate_partitions(7, 1)]
    terms2 = [cy_bundle_term(p, 8, u) for p in enumerate_partitions(7, 2)]
    verdict, cert = check_power_law(
        terms1, terms2, Fraction(len(terms2)), 7, seed=1, signed=True
    )
    assert verdict == "no E exists"
    assert cert["patterns_tested"] == 2 ** 9


def test_check_power_law_deterministic():
    terms1 = [full_torus_ratio(p, 5) for p in enumerate_partitions(4, 1)]
    terms2 = [full_torus_ratio(p, 5) for p in enumerate_partitions(4, 2)]
    run1 = check_power_law(terms1, terms2, Fraction(5), 5, seed=9)
    run2 = check_power_law(terms1, terms2, Fraction(5), 5, seed=9)
    assert run1 == run2


def test_series_serialization():
    z = build_z_odd(3, 3)
    obj = z.serialize()
    assert obj["order"] == 3
    assert obj["coefficients"][1] == ["-1"]
    assert "q^3" in series_table(z)

"""Truncated series arithmetic and the generating-series assemblies."""

import sys
from fractions import Fraction
from math import gcd

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
from oracles import FractionQPoly, series_pow, series_table, z_odd


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
    # ints, bools and Fractions are stored as int numerators over one
    # positive denominator, the pair reduced and zeros on top trimmed;
    # coeffs reads them back as Fractions equal to the inputs
    half = Fraction(1, 2)
    p = QPoly([3, True, half, False, 0])
    assert p.coeffs == (3, 1, half) and p.degree() == 2
    assert all(type(c) is Fraction for c in p.coeffs)
    assert (p.num, p.den) == ((6, 2, 1), 2)
    mixed = QPoly([Fraction(-4, 6), 2, Fraction(5, 9)])
    for q in (p * p, p + 1, p - p, -p, p * 2, p * half, p.shift(2), QPoly.const(True), mixed):
        assert all(type(c) is Fraction for c in q.coeffs)
        assert all(type(c) is int for c in q.num) and type(q.den) is int and q.den > 0
        assert gcd(q.den, *q.num) == 1 and q.num[-1:] != (0,)
        assert q.coeffs == tuple(Fraction(c, q.den) for c in q.num)
    assert (mixed.num, mixed.den) == ((-6, 18, 5), 9)
    assert ((p - p).num, (p - p).den) == ((), 1)
    assert QPoly([False, Fraction(0)]).is_zero()
    assert QPoly([True]) == QPoly.one() == 1


RATIONALS = st.one_of(
    st.integers(-40, 40), st.fractions(min_value=-40, max_value=40, max_denominator=30)
)
COEFFS = st.lists(st.one_of(st.just(0), RATIONALS), max_size=6)
INTS = st.lists(st.integers(-9, 9), max_size=3)


def _agree(got, want):
    """A QPoly and its FractionQPoly oracle hold the same coefficients, the
    QPoly as a reduced pair of int numerators and a positive denominator."""
    assert isinstance(got, QPoly) and isinstance(want, FractionQPoly)
    assert got.den > 0 and gcd(got.den, *got.num) == 1 and got.num[-1:] != (0,)
    assert got.coeffs == want.coeffs and got.render() == want.render()
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.degree() == want.degree() and got.is_zero() == want.is_zero()


def _agree_quotient(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        _agree(got, want)


@settings(max_examples=400, deadline=None)
@given(a=COEFFS, b=COEFFS, c=RATIONALS, x=RATIONALS, k=st.integers(0, 3),
       low=INTS, lead=st.sampled_from([2, -1, -3, 4]))
def test_qpoly_agrees_with_the_fraction_oracle(a, b, c, x, k, low, lead):
    p, q, fp, fq = QPoly(a), QPoly(b), FractionQPoly(a), FractionQPoly(b)
    for got, want in [
        (p + q, fp + fq), (p - q, fp - fq), (-p, -fp), (p * q, fp * fq),
        (p * c, fp * c), (c * p, c * fp), (p + c, fp + c), (c - p, c - fp),
        (p * int(c), fp * int(c)), (p.shift(k), fp.shift(k)), (p**k, fp**k),
    ]:
        _agree(got, want)
    assert p(x) == fp(x) and type(p(x)) is Fraction
    assert (p == q) == (fp == fq) and (p == c) == (fp == c)
    # equal values are equal and hash alike, however they were built
    twin = QPoly([Fraction(v) for v in a] + [0, Fraction(0, 7)])
    assert twin == p and hash(twin) == hash(p)
    if fp.is_constant():
        assert p.constant_value() == fp.constant_value()
    else:
        with pytest.raises(ValueError):
            p.constant_value()
    if not fq.is_zero():
        (qq, qr), (wq, wr) = p.divide(q), fp.divide(fq)
        _agree(qq, wq)
        _agree(qr, wr)
        _agree_quotient(p.divexact(q), fp.divexact(fq))
        _agree_quotient((p * q).divexact(q), (fp * fq).divexact(fq))
    # monic and non-monic integer divisors, on p and on a multiple of p
    for top in (1, lead):
        m, fm = QPoly(low + [top]), FractionQPoly(low + [top])
        _agree_quotient(p.divexact(m), fp.divexact(fm))
        _agree_quotient((p * m).divexact(m), (fp * fm).divexact(fm))
        _agree_quotient((p * m + 1).divexact(m), (fp * fm + 1).divexact(fm))


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

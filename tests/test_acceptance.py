"""Acceptance suite: every headline identity at its stated order, exactly.

All checks are exact rational identities (tolerance zero).  Each
criterion prints one PASS/FAIL line; run with `pytest -s` to see them.
Criterion 3 covers the largest sweep (dimension 8 through order 5 and
dimension 12 through order 3) and dominates the runtime.
"""

import random
from fractions import Fraction

import pytest

from dtvertex import (
    QPoly,
    build_z_4k,
    build_z_odd,
    canonical_representatives,
    check_exp_identity,
    check_key_conjecture,
    check_power_law,
    compute_weight,
    cy_reduce,
    enumerate_partitions,
    m_series,
    omega_c,
    positive_omega_orientation,
    target_4k,
    target_odd,
    verify_uniqueness,
    vertex,
)
from dtvertex.errors import DegenerateSamplePoint
from dtvertex.forms import cy_bundle_term, full_torus_ratio
from dtvertex.series import TruncatedSeries

from conftest import cached_weight_table, weight_stages
from oracles import evaluate_on_locus


def report(name, ok):
    print("%s  %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


# criteria 3, 5, 9, 10b and 10c share the weight tables of these ranges
FOURK_RANGES = [(8, 5), (12, 3)]
ODD_RANGES = [(3, 6), (5, 4), (7, 3)]


def test_criterion_1_odd_dimension_series():
    # (9, 5) and (11, 4) stay out of ODD_RANGES: criterion 10a walks every
    # partition of those ranges
    ranges = ODD_RANGES + [(9, 5), (11, 4)]
    ok = all(build_z_odd(d, order) == target_odd(d, order) for d, order in ranges)
    report(
        "criterion 1: odd-dimension series equal reference at "
        "(3,6),(5,4),(7,3),(9,5),(11,4)",
        ok,
    )


def test_criterion_2_fixed_term_checks():
    ok = True
    for d, top in [(8, 5), (12, 3), (3, 4), (5, 4), (7, 4)]:
        for n in range(1, top + 1):
            for pi in enumerate_partitions(d - 1, n):
                ok = ok and check_key_conjecture(pi, d) == "ok"
    report("criterion 2: no fixed terms for d=8 (<=5), d=12 (<=3), odd d (<=4)", ok)


@pytest.mark.parametrize("d,order", FOURK_RANGES)
def test_criterion_3_fourk_series(d, order):
    weights = cached_weight_table(d, order)
    orient = positive_omega_orientation(weights)
    ok = build_z_4k(d, order, orient, weights) == target_4k(d, order)
    report(
        "criterion 3: dimension-%d series equals reference power mod q^%d"
        % (d, order + 1),
        ok,
    )


def test_criterion_4_one_box_coefficient():
    minus_ell = QPoly((Fraction(0), Fraction(-1)))
    ok = True
    for d in (4, 8, 12):
        weights = cached_weight_table(d, 1)
        orient = positive_omega_orientation(weights)
        ok = ok and build_z_4k(d, 1, orient, weights).coefficient(1) == minus_ell
    report("criterion 4: first coefficient is -ell in dimensions 4, 8, 12", ok)


def test_criterion_5_unit_twist_collapse():
    d, order = 8, 5
    weights = cached_weight_table(d, order)
    one = Fraction(1)
    ok = True
    for n in range(1, order + 1):
        for rep, _ in canonical_representatives(d - 1, n):
            if rep.corner_height() >= 2:
                ok = ok and weight_stages(rep, d).value(one) == 0
    orient = positive_omega_orientation(weights)
    z1 = build_z_4k(d, order, orient, weights).eval_ell(1)
    ok = ok and z1 == m_series(d - 2, order).alternate()
    report("criterion 5: at ell=1 tall columns vanish and the series collapses", ok)


def test_criterion_6_fixture_weights(
    seven_part_size9, seven_part_size10, seven_part_size14
):
    expectations = [
        (seven_part_size9, Fraction(64), 2),
        (seven_part_size10, Fraction(729, 2), 3),
        (seven_part_size14, Fraction(81, 2), 3),
    ]
    ok = True
    for pi, weight, height in expectations:
        w = compute_weight(pi, 8)
        column = QPoly.one()
        for i in range(1, height + 1):
            column = column * QPoly((Fraction(-(i - 1)), Fraction(1)))
        value = weight_stages(pi, 8).value
        matches_shape = value in (column * weight, column * -weight)
        ok = ok and matches_shape and w.omega == weight and omega_c(pi) == weight
    report("criterion 6: the three large fixtures give 64, 729/2, 81/2", ok)


def test_criterion_7_combinatorial_identity():
    ok = True
    for n, order in [(2, 6), (3, 6), (7, 5)]:
        equal, lhs, _ = check_exp_identity(n, order)
        ok = ok and equal
        at_one = (
            m_series(n - 1, order) - TruncatedSeries.one(order)
        ).exp()
        ok = ok and lhs.eval_ell(1) == at_one
    report("criterion 7: weighted counts match exp(t(M-1)) at (2,6),(3,6),(7,5)", ok)


def test_criterion_8_power_law_falsification():
    ok = True
    for d in (5, 7):
        terms1 = [full_torus_ratio(p, d) for p in enumerate_partitions(d - 1, 1)]
        terms2 = [full_torus_ratio(p, d) for p in enumerate_partitions(d - 1, 2)]
        verdict, cert = check_power_law(
            terms1, terms2, Fraction(len(terms2)), d, seed=1
        )
        ok = ok and verdict == "no E exists" and len(cert["points"]) >= 3
    u = (1,) + (0,) * 7
    terms1 = [cy_bundle_term(p, 8, u) for p in enumerate_partitions(7, 1)]
    terms2 = [cy_bundle_term(p, 8, u) for p in enumerate_partitions(7, 2)]
    verdict, cert = check_power_law(
        terms1, terms2, Fraction(len(terms2)), 7, seed=1, signed=True
    )
    ok = ok and verdict == "no E exists" and len(cert["points"]) >= 3
    report("criterion 8: no exponent exists for d=5,7 full torus and d=8 twisted", ok)


def test_criterion_9_orientation_uniqueness():
    ok = True
    # the d = 8 table of criterion 3 covers sizes 1..4 as well
    for d, weights in ((8, cached_weight_table(8, 5)), (4, cached_weight_table(4, 4))):
        result = verify_uniqueness(d, 4, weights)
        ok = ok and result["verdict"] == "unique"
    report("criterion 9: positive orientation unique for d=8 and d=4 through q^4", ok)


def _criteria_partition_sets():
    for d, order in ODD_RANGES:
        for n in range(1, order + 1):
            for pi in enumerate_partitions(d - 1, n):
                yield d, pi
    for d, order in FOURK_RANGES:
        for n in range(1, order + 1):
            for pi in enumerate_partitions(d - 1, n):
                yield d, pi


def test_criterion_10a_duality_and_rank():
    ok = True
    for d, pi in _criteria_partition_sets():
        v = cy_reduce(vertex(pi, d))
        dual = cy_reduce(v.bar())
        if d % 2:
            ok = ok and dual == -v and v.rank() == 0
        else:
            ok = ok and dual == v and v.rank() == 2 * pi.size
    report("criterion 10a: vertex duality and rank hold on all criteria sets", ok)


def test_criterion_10b_square_roots_and_homogeneity():
    ok = True
    for d, order in FOURK_RANGES:
        for n in range(1, order + 1):
            for rep, _ in canonical_representatives(d - 1, n):
                s = weight_stages(rep, d)
                ok = ok and (s.sqrt * s.sqrt).scaled((-1) ** n) == s.euler
                ok = ok and s.product.total_degree() == 0
    report("criterion 10b: square roots exact and insertions degree-balanced", ok)


def test_criterion_10c_random_point_oracle():
    rng = random.Random(777)
    ok = True
    for d, order in FOURK_RANGES:
        for n in range(1, order + 1):
            for rep, _ in canonical_representatives(d - 1, n):
                s = weight_stages(rep, d)
                for ell in (2, 3):
                    expected = s.value(Fraction(ell))
                    hits = tries = 0
                    while hits < 3 and tries < 64:
                        tries += 1
                        frees = tuple(
                            Fraction(rng.randint(-10**6, 10**6))
                            for _ in range(d - 2)
                        )
                        try:
                            got = evaluate_on_locus(s.product, frees, ell)
                        except DegenerateSamplePoint:
                            continue
                        ok = ok and got == expected
                        hits += 1
                    ok = ok and hits == 3
    report("criterion 10c: random-point evaluation matches the symbolic values", ok)

"""Acceptance suite: one test per criterion, in order.

Each test ends with a printed PASS line naming what was established, so a
verbose run reads as a checklist.  Criteria 1 through 3 are timed against
their budgets with fresh (uncached-fixture) verification runs.
"""

import math
import random
import time
from fractions import Fraction

from eigenprod import (
    EisensteinDescriptor,
    KroneckerCharacter,
    Outcome,
    bernoulli,
    c_unequal_expr,
    class_number_imaginary,
    cusp_dim_lower_bound,
    eisenstein_coeff,
    exact_identity_scan,
    generalized_bernoulli,
    is_fundamental_discriminant,
    kronecker,
    narrow_one_fields,
    verify_section3_equal,
    verify_section3_unequal,
    verify_section4_inert,
    verify_section4_noninert,
    verify_section5,
    verify_sqrt5_identity,
    zagier_zeta_minus_one,
)
from oracles import ideal_from_prime_powers, ideals_of_norm, subset_of

TABLE1_ROWS = [
    [2, 1549], [4, 389], [6, 173], [8, 61], [10, 61],
    [12, 37], [14, 29], [16, 13], [18, 13], [20, 13],
]

TABLE2_ROWS = [
    [2, 38, 3517], [4, 42, 109], [6, 38, 37], [8, 26, 13],
    [10, 18, None], [12, 16, None], [14, 16, None], [16, 14, None],
    [18, 14, None], [20, 12, None], [22, 8, None], [24, 6, None],
    [26, 4, None], [28, None, None],
]

TABLE3_ROWS = [
    [2, 10, 73], [4, 14, 8], [6, 14, None],
    [8, 12, None], [10, 8, None], [12, 2, None],
]


def test_criterion_01_equal_weight_table_reproduced():
    start = time.monotonic()
    report = verify_section3_equal()
    elapsed = time.monotonic() - start
    assert report.tables["table1"]["rows"] == TABLE1_ROWS
    assert len(report.tables["table1"]["rows"]) == 10
    assert report.verdict == "no identity exists"
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"criterion 01 PASS: ten equal-weight pairs reproduced in {elapsed:.1f}s")


def test_criterion_02_inert_weight_table_reproduced():
    start = time.monotonic()
    report = verify_section4_inert()
    elapsed = time.monotonic() - start
    rows = report.tables["table2"]["rows"]
    assert rows == TABLE2_ROWS
    assert max(row[0] for row in rows) == 28
    assert report.verdict == "no identity exists"
    assert elapsed < 120, f"took {elapsed:.1f}s"
    print(f"criterion 02 PASS: inert weight/discriminant caps reproduced in {elapsed:.1f}s")


def test_criterion_03_noninert_weight_table_reproduced():
    start = time.monotonic()
    report = verify_section4_noninert()
    elapsed = time.monotonic() - start
    assert report.tables["table3"]["rows"] == TABLE3_ROWS
    assert report.verdict == "no identity exists"
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"criterion 03 PASS: split/ramified caps reproduced in {elapsed:.1f}s")


def test_criterion_04_unequal_weight_constant_enclosed():
    # the printed value 7.2291 is a 4-digit truncation; the certificate
    # asserts the enclosure sits inside the printed value +- 1e-4, has
    # width below 1e-4, and stays above 1
    enc = c_unequal_expr(8, 4, 2).enclose(128)
    center = Fraction(72291, 10**4)
    window = Fraction(1, 10**4)
    assert subset_of(enc, center - window, center + window)
    assert enc.width() < window
    assert enc.lo > 1
    print("criterion 04 PASS: C(8, 4, 2) enclosed within 7.2291 +- 1e-4, above 1")


def test_criterion_05_higher_degree_bounds(report_s5):
    def rec(name):
        return next(c for c in report_s5.constants if c.name == name)

    for name, threshold in (
        ("degree3_contradiction", Fraction(2237, 100)),
        ("degree4_power", Fraction(14181)),
        ("degree5_contradiction", Fraction(128426)),
    ):
        record = rec(name)
        assert record.threshold == threshold
        assert record.decision.outcome is Outcome.CERTIFIED_TRUE
        assert record.decision.enclosure.lo > threshold, name

    window = Fraction(1, 10**5)
    d3 = rec("degree3_min_window_low").decision.enclosure
    assert subset_of(d3, Fraction(786299, 10**6) - window, Fraction(786299, 10**6) + window)
    d4 = rec("degree4_min_window_low").decision.enclosure
    assert subset_of(d4, Fraction(1033449, 10**6) - window, Fraction(1033449, 10**6) + window)
    assert rec("degree3_min_window_high").decision.outcome is Outcome.CERTIFIED_TRUE
    assert rec("degree4_min_window_high").decision.outcome is Outcome.CERTIFIED_TRUE
    print(
        "criterion 05 PASS: lower bounds clear 22.37 / 14181 / 128426; "
        "grid minima enclosed within 1e-5"
    )


def test_criterion_06_exact_scan_unique_identity():
    assert set(exact_identity_scan(100, 12)) == {(5, 2, 2)}
    print("criterion 06 PASS: exact scan to D = 100, k = 12 leaves only (5, 2, 2)")


def test_criterion_07_sqrt5_identity_verified():
    report = verify_sqrt5_identity(10)
    assert report.passed
    assert report.scalar == 60
    assert 60 * Fraction(1, 120) ** 2 == Fraction(1, 240)
    assert report.coefficients_checked == 25
    print("criterion 07 PASS: E4 = 60 E2^2 over Q(sqrt 5) through trace 10")


def test_criterion_08_zeta_routes_agree():
    checked = 0
    for D in range(2, 501):
        if is_fundamental_discriminant(D):
            l_route = bernoulli(2) * generalized_bernoulli(2, KroneckerCharacter(D)) / 4
            assert l_route == zagier_zeta_minus_one(D), D
            checked += 1
    assert checked > 100
    print(f"criterion 08 PASS: L-function and divisor-sum routes agree for {checked} fields")


def _brute_force_form_count(delta: int) -> int:
    # every reduced positive definite form: |b| <= a <= c, b >= 0 when
    # |b| = a or a = c, scanned over an explicit box
    count = 0
    bound = math.isqrt(-delta) + 1
    for a in range(1, bound + 1):
        for b in range(-a, a + 1):
            num = b * b - delta
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            count += 1
    return count


def test_criterion_09_property_suites(hecke_relations):
    rng = random.Random(20260817)
    fields = (5, 8, 13, 17, 29, 37)

    # coefficient bound sweep, random norms up to 1e4
    for D in fields:
        for _ in range(200):
            n = rng.randrange(2, 10_001)
            for ideal in ideals_of_norm(D, n):
                for k in (2, 4, 6, 8, 10, 12):
                    form = EisensteinDescriptor(D, k)
                    assert eisenstein_coeff(form, ideal) <= n ** (k + 1), (D, n, k)

    # multiplicativity on random coprime-norm ideal pairs
    for D in fields:
        form = EisensteinDescriptor(D, 8)
        hits = 0
        while hits < 40:
            m = rng.randrange(2, 80)
            n = rng.randrange(2, 80)
            if math.gcd(m, n) != 1:
                continue
            left, right = ideals_of_norm(D, m), ideals_of_norm(D, n)
            if not left or not right:
                continue
            a = rng.choice(left)
            b = rng.choice(right)
            joint = ideal_from_prime_powers(D, list(a.entries + b.entries))
            assert eisenstein_coeff(form, joint) == eisenstein_coeff(
                form, a
            ) * eisenstein_coeff(form, b)
            hits += 1

    # Hecke recurrence at every residue class of primes, on package
    # coefficients at the powers of a totally positive prime generator
    for D in fields:
        for k in (2, 4, 6, 8, 10, 12):
            for p in (2, 3, 5, 7, 11, 13):
                chi = kronecker(D, p)
                prime_norm = p * p if chi == -1 else p
                hecke_relations(D, prime_norm, k, 10)

    # imaginary class numbers against the brute forced form count
    for delta, expected in ((-3, 1), (-24, 2), (-39, 4)):
        assert class_number_imaginary(delta) == expected
        assert _brute_force_form_count(delta) == expected

    assert [f.discriminant for f in narrow_one_fields(41)] == [5, 8, 13, 17, 29, 37, 41]
    print("criterion 09 PASS: coefficient bounds, multiplicativity, recurrences, class numbers")


def test_criterion_10_cusp_dimensions_exceed_one():
    assert cusp_dim_lower_bound(29, 2) > 1
    checked = []
    for f in narrow_one_fields(100):
        if f.discriminant > 12:
            assert cusp_dim_lower_bound(f.discriminant, 3) > 1, f.discriminant
            checked.append(f.discriminant)
    assert checked == [13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    print("criterion 10 PASS: cusp dimension bounds exceed 1 where required")


def test_criterion_11_precision_independent_verdicts(default_reports):
    runs_256 = {
        "s3-unequal": verify_section3_unequal(base_precision=256),
        "s3-equal": verify_section3_equal(base_precision=256),
        "s4-inert": verify_section4_inert(base_precision=256),
        "s4-noninert": verify_section4_noninert(base_precision=256),
        "s5": verify_section5(base_precision=256),
    }
    for section, report in default_reports.items():
        other = runs_256[section]
        assert report.verdict == other.verdict == "no identity exists", section
        assert report.inconclusive == 0 and other.inconclusive == 0, section
        assert [c.status for c in report.candidates] == [
            c.status for c in other.candidates
        ], section
    print("criterion 11 PASS: verdicts agree at 128 and 256 bit base precision")

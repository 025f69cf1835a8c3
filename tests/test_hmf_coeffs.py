"""Eisenstein coefficient combinatorics.

Ideal counts are checked against the divisor-character sum, element
enumeration against a plain box scan, and product coefficients against a
hand-expanded convolution.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenprod import (
    EisensteinDescriptor,
    IdealFactorization,
    PrimeClass,
    TotallyPositiveElement,
    coeff_bound_check,
    coefficient,
    cusp_dim_lower_bound,
    eisenstein_coeff,
    enumerate_totally_nonneg,
    factor_ideal,
    hecke_recurrence_check,
    ideal_from_prime_powers,
    ideals_of_norm,
    kronecker,
    product_coefficient,
    verify_sqrt5_identity,
)
from eigenprod.hmf_coeffs import (
    _element_divisor_sum,
    element_norm,
    element_trace,
    is_totally_nonnegative,
)


def _divisor_character_sum(D: int, n: int) -> int:
    return sum(kronecker(D, d) for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# Elements


def test_element_invariants_sqrt5():
    # omega = (1 + sqrt 5) / 2: trace 2x + y, norm x^2 + xy - y^2
    nu = TotallyPositiveElement(5, 1, 1)
    assert nu.trace() == 3
    assert nu.norm() == 1
    assert not nu.is_zero()
    assert TotallyPositiveElement(5, 0, 0).is_zero()
    assert nu.minus(TotallyPositiveElement(5, 1, 0)) == (0, 1)


def test_element_invariants_sqrt2():
    # omega = sqrt 2: trace 2x, norm x^2 - 2 y^2
    nu = TotallyPositiveElement(8, 2, 1)
    assert nu.trace() == 4
    assert nu.norm() == 2


def test_element_rejects_non_totally_nonnegative():
    with pytest.raises(ValueError, match="not totally nonnegative"):
        TotallyPositiveElement(5, 0, 1)
    with pytest.raises(ValueError):
        TotallyPositiveElement(5, -1, 0)


@pytest.mark.parametrize("D", [5, 8, 13, 17])
def test_enumeration_matches_box_scan(D):
    bound = 12
    listed = {(nu.x, nu.y) for nu in enumerate_totally_nonneg(D, bound)}
    scanned = set()
    for x in range(-2 * bound, 2 * bound + 1):
        for y in range(-2 * bound, 2 * bound + 1):
            if (x, y) == (0, 0):
                continue
            if not is_totally_nonnegative(D, x, y):
                continue
            if element_trace(D, x, y) <= bound:
                scanned.add((x, y))
    assert listed == scanned


def test_enumeration_counts_and_zero_flag():
    elems = enumerate_totally_nonneg(5, 10)
    assert len(elems) == 25
    assert all(1 <= nu.trace() <= 10 for nu in elems)
    assert all(nu.norm() >= 0 for nu in elems)
    with_zero = enumerate_totally_nonneg(5, 10, include_zero=True)
    assert len(with_zero) == 26 and with_zero[0].is_zero()


def test_enumeration_even_traces_when_omega_is_sqrt():
    assert all(nu.trace() % 2 == 0 for nu in enumerate_totally_nonneg(8, 14))


# ---------------------------------------------------------------------------
# Ideals


def test_ideal_norm_multiplies_prime_powers():
    ideal = ideal_from_prime_powers(
        5, [(4, PrimeClass.INERT, 2), (5, PrimeClass.RAMIFIED, 1)]
    )
    assert ideal.norm() == 80
    assert ideal.entries[0][0] == 4


def test_ideal_validation():
    with pytest.raises(ValueError, match="exponents must be >= 1"):
        ideal_from_prime_powers(5, [(4, PrimeClass.INERT, 0)])
    with pytest.raises(ValueError, match="is not p\\^2"):
        ideal_from_prime_powers(5, [(2, PrimeClass.INERT, 1)])
    with pytest.raises(ValueError, match="is not inert"):
        ideal_from_prime_powers(5, [(121, PrimeClass.INERT, 1)])
    with pytest.raises(ValueError, match="is not split"):
        ideal_from_prime_powers(5, [(2, PrimeClass.SPLIT_FACTOR, 1)])
    with pytest.raises(ValueError, match="is not ramified"):
        ideal_from_prime_powers(5, [(2, PrimeClass.RAMIFIED, 1)])
    with pytest.raises(ValueError, match="more than two factors"):
        ideal_from_prime_powers(
            5, [(11, PrimeClass.SPLIT_FACTOR, 1)] * 3
        )
    with pytest.raises(ValueError, match="repeated non-split"):
        ideal_from_prime_powers(
            5, [(5, PrimeClass.RAMIFIED, 1), (5, PrimeClass.RAMIFIED, 2)]
        )


def test_factor_ideal_spot_values():
    assert factor_ideal(5, 2).entries == ((4, PrimeClass.INERT, 1),)
    assert factor_ideal(5, 3, 1).entries == ((11, PrimeClass.SPLIT_FACTOR, 1),)
    assert factor_ideal(5, -1, 2).entries == ((5, PrimeClass.RAMIFIED, 1),)
    with pytest.raises(ValueError, match="zero element"):
        factor_ideal(5, 0, 0)


@settings(max_examples=300, derandomize=True)
@given(
    D=st.sampled_from([5, 8, 13, 17, 29]),
    x=st.integers(-40, 40),
    y=st.integers(-40, 40),
)
def test_factor_ideal_preserves_norm(D, x, y):
    n = element_norm(D, x, y)
    if n == 0:
        return
    assert factor_ideal(D, x, y).norm() == abs(n)


@pytest.mark.parametrize("D", [5, 8, 13, 17])
def test_ideal_counts_match_character_sum(D):
    for n in range(1, 201):
        ideals = ideals_of_norm(D, n)
        assert len(ideals) == _divisor_character_sum(D, n), (D, n)
        assert all(a.norm() == n for a in ideals)


def test_ideals_of_norm_one_is_unit_ideal():
    (unit,) = ideals_of_norm(5, 1)
    assert unit.entries == ()
    assert unit.norm() == 1


def test_no_ideals_at_odd_inert_valuation():
    assert ideals_of_norm(5, 2) == []
    assert ideals_of_norm(5, 8) == []


# ---------------------------------------------------------------------------
# Eisenstein series


def test_constant_terms():
    assert EisensteinDescriptor(5, 2).constant_term == Fraction(1, 120)
    assert EisensteinDescriptor(5, 4).constant_term == Fraction(1, 240)
    assert EisensteinDescriptor(8, 2).constant_term == Fraction(1, 48)


def test_descriptor_rejects_odd_weight():
    with pytest.raises(ValueError, match="weight must be even"):
        EisensteinDescriptor(5, 3)


def test_prime_power_coefficient_formula():
    e4 = EisensteinDescriptor(5, 4)
    ideal = ideal_from_prime_powers(5, [(11, PrimeClass.SPLIT_FACTOR, 2)])
    assert eisenstein_coeff(e4, ideal) == 1 + 11**3 + 11**6


def test_coefficient_multiplicative_on_coprime_parts():
    rng = random.Random(1303)
    e6 = EisensteinDescriptor(5, 6)
    pool = [
        (4, PrimeClass.INERT),
        (9, PrimeClass.INERT),
        (5, PrimeClass.RAMIFIED),
        (11, PrimeClass.SPLIT_FACTOR),
        (19, PrimeClass.SPLIT_FACTOR),
        (29, PrimeClass.SPLIT_FACTOR),
    ]
    for _ in range(60):
        picks = rng.sample(pool, 2)
        parts = [
            ideal_from_prime_powers(5, [(pn, cls, rng.randrange(1, 4))])
            for pn, cls in picks
        ]
        joint = ideal_from_prime_powers(
            5, [e for part in parts for e in part.entries]
        )
        assert eisenstein_coeff(e6, joint) == eisenstein_coeff(
            e6, parts[0]
        ) * eisenstein_coeff(e6, parts[1])


def test_coefficient_at_elements():
    e2 = EisensteinDescriptor(5, 2)
    assert coefficient(e2, TotallyPositiveElement(5, 0, 0)) == Fraction(1, 120)
    assert coefficient(e2, TotallyPositiveElement(5, 1, 0)) == 1
    # norm 4 inert ideal at weight 2: 1 + 4
    assert coefficient(e2, TotallyPositiveElement(5, 2, 0)) == 5
    with pytest.raises(ValueError, match="different fields"):
        coefficient(e2, TotallyPositiveElement(8, 1, 0))


@pytest.mark.parametrize("D,prime_norms", [(5, (4, 5, 11)), (8, (8, 9, 7)), (13, (4, 13, 3))])
def test_hecke_recurrence(D, prime_norms):
    for k in (2, 4, 6, 8):
        form = EisensteinDescriptor(D, k)
        for q in prime_norms:
            assert hecke_recurrence_check(form, q, 8)


@pytest.mark.parametrize("D", [5, 8, 13])
def test_coefficient_bound_small_sweep(D):
    for k in (2, 4, 6):
        assert coeff_bound_check(EisensteinDescriptor(D, k), 300)


@settings(max_examples=200, derandomize=True)
@given(
    D=st.sampled_from([5, 8, 13, 17, 29, 37]),
    n=st.integers(2, 400),
    k=st.sampled_from([2, 4, 6, 8, 10, 12]),
)
def test_coefficient_bound_pointwise(D, n, k):
    form = EisensteinDescriptor(D, k)
    for ideal in ideals_of_norm(D, n):
        assert eisenstein_coeff(form, ideal) <= n ** (k + 1)


# ---------------------------------------------------------------------------
# Products


def test_product_coefficient_hand_expanded():
    # nu = 1: only decompositions are 0 + 1 and 1 + 0, no trace 1
    # elements have nonnegative norm, so conv = 2 * (1/120) * 1
    e2 = EisensteinDescriptor(5, 2)
    nu = TotallyPositiveElement(5, 1, 0)
    assert product_coefficient(e2, e2, nu) == Fraction(1, 60)


def test_product_coefficient_symmetric_and_constant():
    e2 = EisensteinDescriptor(5, 2)
    e4 = EisensteinDescriptor(5, 4)
    zero = TotallyPositiveElement(5, 0, 0)
    assert product_coefficient(e2, e4, zero) == Fraction(1, 120) * Fraction(1, 240)
    for nu in enumerate_totally_nonneg(5, 6):
        assert product_coefficient(e2, e4, nu) == product_coefficient(e4, e2, nu)


def _reference_product_coefficient(f, h, nu):
    # plain convolution over a box that holds every totally nonnegative mu
    # below nu: both embeddings of mu lie in [0, those of nu]
    D, T = nu.discriminant, nu.trace()
    total = Fraction(0)
    for x in range(-T, T + 1):
        for y in range(-T, T + 1):
            rx, ry = nu.x - x, nu.y - y
            if is_totally_nonnegative(D, x, y) and is_totally_nonnegative(D, rx, ry):
                mu = TotallyPositiveElement(D, x, y)
                rest = TotallyPositiveElement(D, rx, ry)
                total += coefficient(f, mu) * coefficient(h, rest)
    return total


@pytest.mark.parametrize("D", [5, 8, 13, 17])
def test_product_coefficient_matches_reference_convolution(D):
    for k1, k2 in ((2, 2), (2, 4), (4, 6)):
        f = EisensteinDescriptor(D, k1)
        h = EisensteinDescriptor(D, k2)
        for nu in enumerate_totally_nonneg(D, 10, include_zero=True):
            expected = _reference_product_coefficient(f, h, nu)
            assert product_coefficient(f, h, nu) == expected, (D, k1, k2, nu)


@pytest.mark.parametrize("D", [5, 8, 13])
def test_memoised_divisor_sum_matches_eisenstein_coeff(D):
    _element_divisor_sum.cache_clear()
    points = enumerate_totally_nonneg(D, 30)
    for k in (2, 4, 6):
        form = EisensteinDescriptor(D, k)
        for _ in range(2):  # cold, then from the cache
            for nu in points:
                expected = eisenstein_coeff(form, factor_ideal(D, nu.x, nu.y))
                assert _element_divisor_sum(D, k, nu.x, nu.y) == expected, (k, nu)


def test_factor_ideal_still_rejects_after_cached_calls():
    assert factor_ideal(5, 2, 1) == factor_ideal(5, 2, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="zero element"):
            factor_ideal(5, 0, 0)
        with pytest.raises(ValueError, match="not a real quadratic fundamental"):
            factor_ideal(45, 2, 1)


def test_product_coefficient_rejects_mixed_fields():
    e2 = EisensteinDescriptor(5, 2)
    f2 = EisensteinDescriptor(8, 2)
    nu = TotallyPositiveElement(5, 1, 0)
    with pytest.raises(ValueError, match="different fields"):
        product_coefficient(e2, f2, nu)
    with pytest.raises(ValueError, match="different fields"):
        product_coefficient(e2, e2, TotallyPositiveElement(8, 1, 0))


def test_sqrt5_identity_report():
    report = verify_sqrt5_identity(10)
    assert report.passed
    assert report.scalar == 60
    assert report.constant_term_ok
    assert report.coefficients_checked == 25
    assert report.mismatches == ()


def test_sqrt5_identity_constant_term_only():
    report = verify_sqrt5_identity(0)
    assert report.passed and report.coefficients_checked == 0
    with pytest.raises(ValueError):
        verify_sqrt5_identity(-1)


# ---------------------------------------------------------------------------
# Cusp dimension bound


def test_cusp_dimension_anchors():
    assert cusp_dim_lower_bound(13, 2) == 1
    assert cusp_dim_lower_bound(17, 2) == 2
    assert cusp_dim_lower_bound(17, 3) == 5
    assert cusp_dim_lower_bound(29, 2) == 2
    assert cusp_dim_lower_bound(37, 2) == 3
    assert cusp_dim_lower_bound(41, 2) == 6
    assert cusp_dim_lower_bound(53, 2) == 4
    assert cusp_dim_lower_bound(73, 2) == 15
    assert isinstance(cusp_dim_lower_bound(13, 2), Fraction)


def test_cusp_dimension_bound_domain():
    with pytest.raises(ValueError, match="requires D > 12"):
        cusp_dim_lower_bound(5, 2)
    with pytest.raises(ValueError, match="narrow class number one"):
        cusp_dim_lower_bound(40, 2)
    with pytest.raises(ValueError, match="k must be >= 2"):
        cusp_dim_lower_bound(13, 1)

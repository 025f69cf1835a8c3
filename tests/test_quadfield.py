"""Quadratic field invariants.

The imaginary class number oracle goes through the analytic class number
formula h = -(w/2) B_{1,chi} instead of counting reduced forms; the unit
norm oracle brute forces the smallest solution of x^2 - d y^2 = +-4 (or
+-1) instead of walking the continued fraction.
"""

import math
from fractions import Fraction

import pytest

from eigenprod import (
    FieldDescriptor,
    Splitting,
    class_number_imaginary,
    field_descriptor,
    is_fundamental_discriminant,
    kronecker,
    narrow_class_number,
    narrow_one_fields,
    ramare_bound,
    splitting_of_two,
)
from eigenprod.exact import _factorize
from eigenprod.quadfield import _narrow_class_number_is_one, radicand
from oracles import fundamental_unit_norm, subset_of


def _oracle_h_imaginary(delta: int) -> int:
    # h = -(w/2) * (1/|delta|) * sum_a chi(a) a, exact over Fraction
    w = {-3: 6, -4: 4}.get(delta, 2)
    f = -delta
    b1 = Fraction(sum(kronecker(delta, a) * a for a in range(1, f + 1)), f)
    h = Fraction(-w, 2) * b1
    assert h.denominator == 1 and h > 0
    return int(h)


def _oracle_unit_norm(D: int, y_bound: int = 200_000) -> int:
    # smallest y with x^2 - d y^2 = +-c (c = 4 on odd discriminants,
    # else 1) pins the fundamental unit; the sign reached first is its norm
    d = D if D % 4 == 1 else D // 4
    c = 4 if D % 4 == 1 else 1
    for y in range(1, y_bound):
        base = d * y * y
        for sign in (-1, 1):
            t = base + sign * c
            if t >= 0:
                x = math.isqrt(t)
                if x * x == t:
                    return sign
    raise AssertionError(f"no unit found below bound for {D}")


# ---------------------------------------------------------------------------
# Splitting of 2


def test_splitting_spot_values():
    assert splitting_of_two(5) is Splitting.INERT
    assert splitting_of_two(13) is Splitting.INERT
    assert splitting_of_two(21) is Splitting.INERT
    assert splitting_of_two(17) is Splitting.SPLIT
    assert splitting_of_two(33) is Splitting.SPLIT
    assert splitting_of_two(8) is Splitting.RAMIFIED
    assert splitting_of_two(12) is Splitting.RAMIFIED


def test_splitting_labels():
    assert Splitting.INERT.value == "Inert"
    assert Splitting.SPLIT.value == "Split"
    assert Splitting.RAMIFIED.value == "Ramified"


def test_splitting_follows_character_at_two():
    for D in range(5, 300):
        if not is_fundamental_discriminant(D):
            continue
        chi2 = kronecker(D, 2)
        expected = {0: Splitting.RAMIFIED, 1: Splitting.SPLIT, -1: Splitting.INERT}[chi2]
        assert splitting_of_two(D) is expected, D


def test_splitting_rejects_non_fundamental():
    with pytest.raises(ValueError, match="not a real quadratic fundamental"):
        splitting_of_two(15)


# ---------------------------------------------------------------------------
# Imaginary class numbers


def test_imaginary_class_numbers_known():
    assert class_number_imaginary(-3) == 1
    assert class_number_imaginary(-4) == 1
    assert class_number_imaginary(-7) == 1
    assert class_number_imaginary(-23) == 3
    assert class_number_imaginary(-24) == 2
    assert class_number_imaginary(-39) == 4
    assert class_number_imaginary(-47) == 5
    assert class_number_imaginary(-163) == 1


def test_imaginary_class_numbers_match_character_sum():
    for delta in range(-3, -250, -1):
        if is_fundamental_discriminant(delta):
            assert class_number_imaginary(delta) == _oracle_h_imaginary(delta), delta


def test_imaginary_class_number_rejects_bad_input():
    with pytest.raises(ValueError):
        class_number_imaginary(5)
    with pytest.raises(ValueError):
        class_number_imaginary(-5)


# ---------------------------------------------------------------------------
# Class number upper bound


def test_class_number_bound_dominates_true_value():
    for delta in range(-7, -400, -1):
        if is_fundamental_discriminant(delta):
            bound = ramare_bound(delta).enclose(128)
            assert bound.lo > 0
            assert class_number_imaginary(delta) <= bound.hi, delta


def test_class_number_bound_spot_value():
    b = ramare_bound(-39).enclose(128)
    assert subset_of(b, 5, Fraction(51, 10))


@pytest.mark.parametrize("delta", [-3, -4, 5, -6])
def test_class_number_bound_domain(delta):
    with pytest.raises(ValueError):
        ramare_bound(delta)


# ---------------------------------------------------------------------------
# Narrow class numbers and unit norms


def test_narrow_class_numbers_known():
    assert narrow_class_number(5) == 1
    assert narrow_class_number(8) == 1
    assert narrow_class_number(12) == 2
    assert narrow_class_number(21) == 2
    assert narrow_class_number(24) == 2
    assert narrow_class_number(40) == 2
    assert narrow_class_number(60) == 4


def test_fundamental_unit_norms_match_pell_oracle():
    for D in range(5, 120):
        if is_fundamental_discriminant(D):
            assert fundamental_unit_norm(D) == _oracle_unit_norm(D), D


def test_fundamental_unit_norm_accepts_radicand():
    assert fundamental_unit_norm(2) == fundamental_unit_norm(8) == -1
    assert fundamental_unit_norm(3) == fundamental_unit_norm(12) == 1


def test_narrow_one_universe():
    fields = narrow_one_fields(100)
    assert [f.discriminant for f in fields] == [5, 8, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    assert all(isinstance(f, FieldDescriptor) for f in fields)
    assert all(f.narrow_class_number == 1 for f in fields)
    assert narrow_one_fields(100) is narrow_one_fields(100)
    # the --d-limit 20000 stress configuration
    assert len(narrow_one_fields(20000)) == 918


def test_principal_cycle_criterion_matches_cycle_count():
    # the predicate on its own, without the genus prefilter, over every
    # real fundamental D <= 4000: dropping its a = -1 condition goes wrong
    # at D = 12, 21, 28, ..., dropping its prime loop at D = 40, 65, 85, ...
    checked = 0
    for D in range(5, 4001):
        if is_fundamental_discriminant(D):
            assert _narrow_class_number_is_one(D) == (narrow_class_number(D) == 1), D
            checked += 1
    assert checked == 1216


def test_narrow_one_forces_prime_or_eight():
    # genus theory: a single genus needs a single ramified prime
    for f in narrow_one_fields(600):
        D = f.discriminant
        assert D == 8 or (D % 4 == 1 and _is_prime(D)), D


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_factorize_multiplies_back_with_ascending_primes():
    # the package's one trial division, checked by this file's own primality
    for n in range(1, 20001):
        pairs = _factorize(n)
        assert math.prod(p**e for p, e in pairs) == n, n
        primes = [p for p, _ in pairs]
        assert primes == sorted(set(primes)), n
        assert all(_is_prime(p) and e >= 1 for p, e in pairs), n


def test_narrow_one_needs_negative_unit_norm():
    for f in narrow_one_fields(300):
        assert fundamental_unit_norm(f.discriminant) == -1


# ---------------------------------------------------------------------------
# Field descriptors


def test_field_descriptor_contents():
    fd = field_descriptor(13)
    assert fd == FieldDescriptor(13, 13, Splitting.INERT, 1)
    fd8 = field_descriptor(8)
    assert fd8.radicand == 2
    assert fd8.two_splitting is Splitting.RAMIFIED


def test_radicand_values():
    assert radicand(8) == 2
    assert radicand(12) == 3
    assert radicand(13) == 13
    assert radicand(40) == 10
    assert radicand(60) == 15

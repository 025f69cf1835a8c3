"""Exact arithmetic layer, checked against independently coded oracles.

Every oracle here deliberately takes a different route than the package:
Bernoulli numbers via Akiyama-Tanigawa instead of the defining recurrence,
Kronecker symbols via Euler's criterion plus multiplicativity instead of
reciprocity, generalized Bernoulli numbers via Bernoulli polynomials
evaluated at rationals instead of integer power sums.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from eigenprod import (
    KroneckerCharacter,
    bernoulli,
    dedekind_zeta_neg,
    generalized_bernoulli,
    is_fundamental_discriminant,
    kronecker,
    zagier_zeta_minus_one,
)
from eigenprod import exact
from eigenprod.exact import (
    ZETA_MODULUS,
    _fill_power_sum_rows,
    _prime_power_divisor_sum,
    _sigma1,
    zeta_residues,
)
from oracles import power_sum, power_sums_reference


# ---------------------------------------------------------------------------
# Oracles


@lru_cache(maxsize=None)
def _oracle_bernoulli(n: int) -> Fraction:
    # Akiyama-Tanigawa transform; produces the B_1 = +1/2 convention,
    # flipped below to match the package's B_1 = -1/2.
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return -row[0] if n == 1 else row[0]


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _oracle_kronecker(delta: int, n: int) -> int:
    """(delta / n) for n >= 1 from Euler's criterion at odd primes."""
    if n == 1:
        return 1
    result = 1
    for p, e in _factorize(n):
        if p == 2:
            r = delta % 8
            chi2 = 0 if delta % 2 == 0 else (1 if r in (1, 7) else -1)
            result *= chi2**e
        else:
            r = pow(delta % p, (p - 1) // 2, p)
            chi_p = 0 if r == 0 else (1 if r == 1 else -1)
            result *= chi_p**e
    return result


def _oracle_generalized_bernoulli(k: int, delta: int) -> Fraction:
    # f^(k-1) * sum_a chi(a) B_k(a/f) with the Bernoulli polynomial
    # expanded at exact rationals; no shared code with the power-sum route.
    import math

    f = abs(delta)
    total = Fraction(0)
    for a in range(1, f + 1):
        chi_a = _oracle_kronecker(delta, a)
        if chi_a == 0:
            continue
        x = Fraction(a, f)
        poly = sum(
            math.comb(k, j) * _oracle_bernoulli(j) * x ** (k - j)
            for j in range(k + 1)
        )
        total += chi_a * poly
    return Fraction(f) ** (k - 1) * total


# ---------------------------------------------------------------------------
# Bernoulli numbers


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_akiyama_tanigawa():
    for n in range(121):
        assert bernoulli(n) == _oracle_bernoulli(n), n


def test_bernoulli_odd_indices_vanish():
    assert all(bernoulli(n) == 0 for n in range(3, 40, 2))


def test_bernoulli_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli(-1)


# ---------------------------------------------------------------------------
# Kronecker symbol


FUNDAMENTAL_POSITIVE = [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41]
FUNDAMENTAL_NEGATIVE = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -39]


@pytest.mark.parametrize("delta", FUNDAMENTAL_POSITIVE + FUNDAMENTAL_NEGATIVE)
def test_kronecker_matches_euler_criterion(delta):
    for n in range(1, 200):
        assert kronecker(delta, n) == _oracle_kronecker(delta, n), (delta, n)


def test_kronecker_at_zero():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0


def test_kronecker_sign_at_minus_one():
    # chi(-1) detects the signature of the discriminant
    for delta in FUNDAMENTAL_POSITIVE:
        assert kronecker(delta, -1) == 1
    for delta in FUNDAMENTAL_NEGATIVE:
        assert kronecker(delta, -1) == -1


def test_kronecker_completely_multiplicative():
    import random

    rng = random.Random(401)
    for _ in range(300):
        delta = rng.choice(FUNDAMENTAL_POSITIVE + FUNDAMENTAL_NEGATIVE)
        m = rng.randrange(1, 500)
        n = rng.randrange(1, 500)
        assert kronecker(delta, m * n) == kronecker(delta, m) * kronecker(delta, n)


# ---------------------------------------------------------------------------
# Fundamental discriminants


def test_fundamental_discriminant_lists():
    assert [d for d in range(2, 45) if is_fundamental_discriminant(d)] == [
        5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44,
    ]
    assert [d for d in range(-1, -25, -1) if is_fundamental_discriminant(d)] == [
        -3, -4, -7, -8, -11, -15, -19, -20, -23, -24,
    ]


def test_fundamental_discriminant_unit():
    assert is_fundamental_discriminant(1)
    assert not is_fundamental_discriminant(0)
    assert not is_fundamental_discriminant(-1)


@pytest.mark.parametrize("delta", [2, 3, 9, 16, 25, 45, -5, -9, -12, -16, -27])
def test_non_fundamental_rejected(delta):
    assert not is_fundamental_discriminant(delta)


def _is_discriminant(d: int) -> bool:
    return d % 4 in (0, 1)


def _oracle_fundamental(delta: int) -> bool:
    # a nonzero discriminant that is no square f^2 > 1 times another one
    if delta == 0 or not _is_discriminant(delta):
        return False
    return not any(
        delta % (f * f) == 0 and _is_discriminant(delta // (f * f))
        for f in range(2, math.isqrt(abs(delta)) + 1)
    )


def test_fundamental_discriminant_matches_definition():
    for delta in range(-5000, 5001):
        assert is_fundamental_discriminant(delta) == _oracle_fundamental(delta), delta


# ---------------------------------------------------------------------------
# Quadratic characters


def test_character_period_and_parity():
    chi5 = KroneckerCharacter(5)
    assert chi5.period == 5
    assert not chi5.is_odd()
    chi_m3 = KroneckerCharacter(-3)
    assert chi_m3.period == 3
    assert chi_m3.is_odd()


def test_character_value_table():
    chi8 = KroneckerCharacter(8)
    table = chi8.value_table()
    assert table == (0, 1, 0, -1, 0, -1, 0, 1)
    assert all(chi8(n) == table[n % 8] for n in range(-30, 30))


@pytest.mark.parametrize("delta", [1, 3, 9, -5, 45])
def test_character_requires_fundamental(delta):
    with pytest.raises(ValueError):
        KroneckerCharacter(delta)


@pytest.mark.parametrize("sign", [1, -1])
def test_character_table_matches_kronecker(sign):
    # built fresh from the prime-discriminant factors, not read from a
    # table another test left in the cache
    checked = 0
    for f in range(3, 2001):
        delta = sign * f
        if not is_fundamental_discriminant(delta):
            continue
        expected = tuple(kronecker(delta, a) for a in range(f))
        assert KroneckerCharacter(delta).value_table() == expected, delta
        checked += 1
    assert checked == (607 if sign == 1 else 611)


@pytest.mark.parametrize("sign", [1, -1])
def test_power_sum_matches_full_period_definition(sign):
    # T_i = sum_{a=1}^{f} chi(a) (2a - f)^i over the whole period, through
    # kronecker, against the half-period sum with its parity zeros
    KroneckerCharacter.power_sums.cache_clear()
    checked = 0
    for f in range(3, 601):
        delta = sign * f
        if not is_fundamental_discriminant(delta):
            continue
        chi = KroneckerCharacter(delta)
        reference = power_sums_reference(delta, 12)
        for i in range(13):
            assert power_sum(chi, i) == reference[i], (delta, i)
        checked += 1
    assert checked == (182 if sign == 1 else 184)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("delta", [-3, -4, -8, -15, -24, 5, 8, 12, 13, 997])
def test_power_sums_row_independent_of_request_order(delta, order):
    # the memoised row is rebuilt from T_p whenever a later index needs it
    # longer; whichever order the indices arrive in, and on a new character
    # object each time, every T_i must equal the full-period definition
    KroneckerCharacter.power_sums.cache_clear()
    f = abs(delta)
    reference = power_sums_reference(delta, 40)
    indices = list(range(41))
    if order == "descending":
        indices.reverse()
    elif order == "shuffled":
        random.Random(f).shuffle(indices)
    for i in indices:
        expected = reference[i]
        assert power_sum(KroneckerCharacter(delta), i) == expected, (delta, i)
    row = KroneckerCharacter(delta).power_sums(40)
    p = 1 if delta < 0 else 0
    assert row == reference[p::2]


# odd and even parity, prime and composite, odd and even period
_BATCH = (-3, -4, -8, -15, -24, 5, 8, 12, 13, 21, 24, 997)


def test_power_sum_batch_at_mixed_targets_matches_full_period_definition():
    # one pass of the shared-table kernel over rows of different lengths:
    # each row through its own target, and no further
    KroneckerCharacter.power_sums.cache_clear()
    targets = {delta: 3 + 4 * n for n, delta in enumerate(_BATCH)}
    _fill_power_sum_rows(targets)
    for delta, i in targets.items():
        p = 1 if delta < 0 else 0
        assert exact._power_sum_rows[delta] == power_sums_reference(delta, i)[p::2], delta


def test_power_sum_batch_extends_existing_rows():
    # a later batch rebuilds the rows it needs longer and leaves the rows
    # that already reach their targets as they are
    KroneckerCharacter.power_sums.cache_clear()
    _fill_power_sum_rows({delta: 9 for delta in _BATCH})
    before = dict(exact._power_sum_rows)
    longer = {delta: 30 + (delta % 7) for delta in _BATCH[::2]}
    _fill_power_sum_rows({**{delta: 5 for delta in _BATCH[1::2]}, **longer})
    for delta in _BATCH:
        p = 1 if delta < 0 else 0
        row = exact._power_sum_rows[delta]
        if delta in longer:
            assert row == power_sums_reference(delta, longer[delta])[p::2], delta
        else:
            assert row is before[delta], delta
            assert row == power_sums_reference(delta, 9)[p::2], delta


def test_power_sum_residues_are_the_exact_rows_mod_the_prime():
    # the kernel's modular store holds the exact rows reduced, at mixed
    # targets and both parities, and leaves the exact store alone
    zeta_residues.cache_clear()
    KroneckerCharacter.power_sums.cache_clear()
    targets = {delta: 3 + 4 * n for n, delta in enumerate(_BATCH)}
    _fill_power_sum_rows(targets, ZETA_MODULUS)
    assert exact._power_sum_rows == {}
    residues = exact._power_sum_residues[ZETA_MODULUS]
    for delta, i in targets.items():
        p = 1 if delta < 0 else 0
        exact_row = power_sums_reference(delta, i)[p::2]
        assert residues[delta] == tuple(t % ZETA_MODULUS for t in exact_row), delta


def test_character_vanishes_exactly_on_common_factors():
    import math

    for delta in (5, 12, -15, -24, 40):
        chi = KroneckerCharacter(delta)
        for n in range(1, 80):
            assert (chi(n) == 0) == (math.gcd(n, delta) > 1), (delta, n)


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers


def test_generalized_bernoulli_known_values():
    assert generalized_bernoulli(2, KroneckerCharacter(5)) == Fraction(4, 5)
    assert generalized_bernoulli(1, KroneckerCharacter(-3)) == Fraction(-1, 3)
    assert generalized_bernoulli(1, KroneckerCharacter(-4)) == Fraction(-1, 2)
    assert generalized_bernoulli(2, KroneckerCharacter(8)) == 2


@pytest.mark.parametrize("delta", [5, 8, 12, 13, -3, -4, -7, -8, 21, -15])
def test_generalized_bernoulli_matches_polynomial_route(delta):
    chi = KroneckerCharacter(delta)
    for k in range(9):
        assert generalized_bernoulli(k, chi) == _oracle_generalized_bernoulli(
            k, delta
        ), (delta, k)


@pytest.mark.parametrize("delta", [5, 8, 12, 21, 40, -3, -4, -15, -24])
def test_generalized_bernoulli_high_weights_any_order(delta):
    # weights up to 40 asked for in a scrambled order on one character
    # object, from an empty power-sum cache, so no fill order is favoured
    KroneckerCharacter.power_sums.cache_clear()
    chi = KroneckerCharacter(delta)
    weights = list(range(41))
    random.Random(delta).shuffle(weights)
    for k in weights:
        assert generalized_bernoulli(k, chi) == _oracle_generalized_bernoulli(
            k, delta
        ), (delta, k)


def test_generalized_bernoulli_parity_vanishing():
    # B_{k, chi} = 0 whenever chi(-1) != (-1)^k
    for delta in (5, 13, 17):
        chi = KroneckerCharacter(delta)
        assert all(generalized_bernoulli(k, chi) == 0 for k in (1, 3, 5, 7))
        assert all(generalized_bernoulli(k, chi) != 0 for k in (2, 4, 6, 8))
    for delta in (-3, -4, -7):
        chi = KroneckerCharacter(delta)
        assert all(generalized_bernoulli(k, chi) == 0 for k in (2, 4, 6, 8))
        assert all(generalized_bernoulli(k, chi) != 0 for k in (1, 3, 5, 7))


# ---------------------------------------------------------------------------
# Zeta values


def test_dedekind_zeta_neg_known_values():
    assert dedekind_zeta_neg(5, 2) == Fraction(1, 30)
    assert dedekind_zeta_neg(5, 4) == Fraction(1, 60)
    assert dedekind_zeta_neg(8, 2) == Fraction(1, 12)
    assert dedekind_zeta_neg(12, 2) == Fraction(1, 6)
    assert dedekind_zeta_neg(13, 2) == Fraction(1, 6)


def test_dedekind_zeta_neg_matches_oracle_product():
    for D in (5, 8, 13, 17, 24, 40):
        for k in (2, 4, 6):
            expected = (-_oracle_bernoulli(k) / k) * (
                -_oracle_generalized_bernoulli(k, D) / k
            )
            assert dedekind_zeta_neg(D, k) == expected, (D, k)


def test_dedekind_zeta_neg_positive_at_minus_one():
    for D in range(5, 200):
        if is_fundamental_discriminant(D):
            assert dedekind_zeta_neg(D, 2) > 0


def test_dedekind_zeta_neg_rejects_bad_input():
    with pytest.raises(ValueError, match="not a real quadratic fundamental"):
        dedekind_zeta_neg(15, 2)
    with pytest.raises(ValueError, match="not a real quadratic fundamental"):
        dedekind_zeta_neg(-3, 2)


@pytest.mark.parametrize("k", [0, 1, 3, -2])
def test_riemann_zeta_neg_rejects_bad_index(k):
    # The index rule of the zeta(1 - k) = -B_k / k factor is enforced by
    # dedekind_zeta_neg, the one route to zeta values at negative integers.
    with pytest.raises(ValueError, match="k must be even"):
        dedekind_zeta_neg(5, k)


def _l_function_zeta_minus_one(D: int) -> Fraction:
    # zeta_F(-1) = zeta(-1) L(-1, chi_D) = B_2 B_{2, chi_D} / 4 through the
    # character's power sums; dedekind_zeta_neg(D, 2) is the divisor sum
    # itself, so it cannot serve as the other route
    return bernoulli(2) * generalized_bernoulli(2, KroneckerCharacter(D)) / 4


def test_zagier_route_agrees_with_l_function_route():
    for D in range(2, 301):
        if is_fundamental_discriminant(D):
            assert zagier_zeta_minus_one(D) == _l_function_zeta_minus_one(D), D


def test_zagier_route_agrees_over_verify_default_range():
    # every real fundamental D <= 4000, the default --d-limit; the divisor
    # sums share no code with the character power sums
    checked = 0
    for D in range(2, 4001):
        if is_fundamental_discriminant(D):
            assert zagier_zeta_minus_one(D) == _l_function_zeta_minus_one(D), D
            checked += 1
    assert checked == 1216


def test_zagier_rejects_non_fundamental():
    with pytest.raises(ValueError):
        zagier_zeta_minus_one(15)


def test_prime_power_divisor_sum_is_the_geometric_sum():
    for q in range(2, 61):
        for e in range(9):
            assert _prime_power_divisor_sum(q, e) == sum(q**i for i in range(e + 1)), (q, e)


def test_sigma1_matches_a_divisor_sieve():
    limit = 3000
    sieve = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for n in range(d, limit + 1, d):
            sieve[n] += d
    assert [_sigma1(n) for n in range(1, limit + 1)] == sieve[1:]


def test_prime_sieve_agrees_with_is_prime():
    # narrow_one_fields reads the sieve; _is_prime is the single-number test
    sieve = exact._primes_up_to(20000)
    assert len(sieve) == 20001
    assert [n for n in range(20001) if sieve[n]] == [
        n for n in range(20001) if exact._is_prime(n)
    ]
    small = [list(exact._primes_up_to(n)) for n in range(4)]
    assert small == [[0], [0, 0], [0, 0, 1], [0, 0, 1, 1]]

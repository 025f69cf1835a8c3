"""Exact rational special values.

Everything in this module is computed in exact arithmetic
(``fractions.Fraction`` over Python integers): Bernoulli numbers,
Kronecker symbols, generalized Bernoulli numbers attached to quadratic
characters, and the negative special values of Riemann and Dedekind zeta
functions built from them.  No floating point enters at any stage, so
equalities between these values are decidable and are used as such by the
verification layer.

Conventions:

* ``bernoulli(1) == -1/2`` (the "first" convention), so that
  ``zeta(1-k) == -bernoulli(k)/k`` holds for every integer ``k >= 2``.
* ``L(1-k, chi) == -generalized_bernoulli(k, chi)/k`` for ``k >= 1``.
* Discriminants passed to character or field constructors must be
  fundamental; this is validated, not assumed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat


# ---------------------------------------------------------------------------
# Bernoulli numbers


# B_0..B_N for the largest N asked for so far; shorter rows are prefixes.
# Rebound, never mutated, so a concurrent caller always reads a whole row.
_bernoulli_numbers: tuple[Fraction, ...] = (Fraction(1),)


def _bernoulli_row(n: int) -> tuple[Fraction, ...]:
    # B_0..B_n via the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0.
    global _bernoulli_numbers
    row = _bernoulli_numbers
    if len(row) <= n:
        grown = list(row)
        for m in range(len(row), n + 1):
            acc = Fraction(0)
            for j in range(m):
                acc += math.comb(m + 1, j) * grown[j]
            grown.append(-acc / (m + 1))
        row = _bernoulli_numbers = tuple(grown)
    return row[: n + 1]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, B_1 = -1/2."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if k > 2 and k % 2 == 1:
        return Fraction(0)
    return _bernoulli_row(k)[k]


# ---------------------------------------------------------------------------
# Kronecker symbol and quadratic characters


def kronecker(delta: int, n: int) -> int:
    """Kronecker symbol (delta / n), extended to all integers n."""
    a, b = delta, n
    if b == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if b < 0:
        b = -b
        if a < 0:
            result = -result
    if b % 2 == 0:
        if a % 2 == 0:
            return 0
        # (a/2) = 0, +-1 by a mod 8
        twos = 0
        while b % 2 == 0:
            b //= 2
            twos += 1
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # b odd and positive now: Jacobi symbol with reciprocity
    a %= b
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def _squarefree(n: int) -> bool:
    n = abs(n)
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 2
    return True


def is_fundamental_discriminant(delta: int) -> bool:
    """True iff delta is the discriminant of a quadratic field (or 1)."""
    if delta == 1:
        return True
    if delta % 4 == 1:
        return _squarefree(delta)
    if delta % 4 == 0:
        q = delta // 4
        return q % 4 in (2, 3) and _squarefree(q)
    return False


def _require_real_fundamental(D: int) -> None:
    if D <= 1 or not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a real quadratic fundamental discriminant")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class KroneckerCharacter:
    """The quadratic character chi(n) = (discriminant / n).

    Periodic modulo ``period == abs(discriminant)``; primitive exactly when
    the discriminant is fundamental, which the constructor enforces.
    """

    discriminant: int
    period: int

    def __init__(self, discriminant: int):
        if not is_fundamental_discriminant(discriminant) or discriminant == 1:
            raise ValueError(
                f"{discriminant} is not a fundamental discriminant"
            )
        object.__setattr__(self, "discriminant", discriminant)
        object.__setattr__(self, "period", abs(discriminant))

    def __call__(self, n: int) -> int:
        return kronecker(self.discriminant, n)

    def is_odd(self) -> bool:
        # chi(-1) = -1 exactly for imaginary discriminants
        return self.discriminant < 0

    def value_table(self) -> tuple[int, ...]:
        """chi(0), ..., chi(period - 1).

        chi_D is the product of the characters of the prime discriminants
        dividing D: the Legendre symbol mod p at odd p (through the set of
        squares mod p) and a fixed table for the 2-part -4, 8 or -8.
        """
        f = self.period
        factors = []  # one period of each prime-discriminant character
        two_part, odd, p = self.discriminant, f, 3
        while odd % 2 == 0:
            odd //= 2
        while odd > 1:
            if p * p > odd:
                p = odd  # what is left is prime
            if odd % p == 0:
                odd //= p
                two_part //= p if p % 4 == 1 else -p
                legendre = [-1] * p
                legendre[0] = 0
                for square in {a * a % p for a in range(1, p // 2 + 1)}:
                    legendre[square] = 1
                factors.append(legendre)
            p += 2
        if two_part != 1:
            factors.append(_TWO_PART_TABLES[two_part])
        table = [1] * f
        for factor in factors:
            table = list(map(operator.mul, table, factor * (f // len(factor))))
        return tuple(table)

    @lru_cache(maxsize=None)
    def _half_period_masks(self) -> tuple[bytes, bytes]:
        # where chi(a) = +1 and where chi(a) = -1, for 0 <= a < period / 2
        half = self.value_table()[: (self.period + 1) // 2]
        return bytes(map((1).__eq__, half)), bytes(map((-1).__eq__, half))

    @lru_cache(maxsize=None)
    def power_sum(self, i: int) -> int:
        """T_i = sum_{a=1}^{period} chi(a) (2a - period)^i, computed once per i.

        The reflection a -> period - a fixes the sum up to the sign
        chi(-1) (-1)^i, so T_i = 0, with no walk, unless (-1)^i = chi(-1).
        Otherwise the two halves agree and T_i is twice the sum over
        a < period / 2, where (2a - period)^i = chi(-1) (period - 2a)^i:
        one C-level pass over each sign's half-period mask.
        """
        f = self.period
        sign = -1 if self.is_odd() else 1
        if (-1) ** i != sign:
            return 0
        plus, minus = self._half_period_masks()
        offsets = range(f, 0, -2)  # period - 2a for a = 0, 1, ...
        s = sum(map(pow, compress(offsets, plus), repeat(i))) - sum(
            map(pow, compress(offsets, minus), repeat(i))
        )
        return 2 * sign * s


# chi_{-4}, chi_8 and chi_{-8} on one period
_TWO_PART_TABLES = {
    -4: [0, 1, 0, -1],
    8: [0, 1, 0, -1, 0, -1, 0, 1],
    -8: [0, 1, 0, 1, 0, -1, 0, -1],
}


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers and L-values


def generalized_bernoulli(k: int, chi: KroneckerCharacter) -> Fraction:
    """B_{k, chi} for the quadratic character chi of period f.

    B_{k, chi} = f^(k-1) * sum_{a=1}^{f} chi(a) B_k(a/f).  Expanding the
    Bernoulli polynomial at x = 1/2, with B_j(1/2) = (2^(1-j) - 1) B_j
    (zero for odd j) and a/f - 1/2 = (2a - f) / (2f), gives

        B_{k, chi} = sum_{j even} C(k, j) B_j (2 - 2^j) f^j T_{k-j} / (f 2^k)

    with the centered integer power sums T_i = sum_{a=1}^{f} chi(a) (2a - f)^i
    (``KroneckerCharacter.power_sum``).  T_i vanishes unless
    (-1)^i = chi(-1), and otherwise walks half the period once per
    (character, i), however many weights ask for it; so B_{k, chi} = 0
    without a walk when chi(-1) != (-1)^k.  The terms are summed as
    integers over the common denominator of the B_j times f 2^k.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    f = chi.period
    bern = _bernoulli_row(k)[::2]  # B_0, B_2, B_4, ...
    den = math.lcm(*(b.denominator for b in bern))
    numerator = sum(
        math.comb(k, j) * b.numerator * (den // b.denominator) * (2 - 2**j) * f**j
        * chi.power_sum(k - j)
        for j, b in zip(range(0, k + 1, 2), bern)
    )
    return Fraction(numerator, den * f * 2**k)


def dirichlet_l_neg(k: int, chi: KroneckerCharacter) -> Fraction:
    """L(1 - k, chi) = -B_{k, chi} / k for k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -generalized_bernoulli(k, chi) / k


def riemann_zeta_neg(k: int) -> Fraction:
    """zeta(1 - k) = -B_k / k for even k >= 2."""
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be even and >= 2")
    return -bernoulli(k) / k


@lru_cache(maxsize=None)
def dedekind_zeta_neg(D: int, k: int) -> Fraction:
    """zeta_F(1 - k) for F the real quadratic field of discriminant D.

    Factors as zeta(1 - k) * L(1 - k, chi_D); k must be even and >= 2 (odd
    k give 0 and are rejected as misuse), D must be a fundamental
    discriminant > 1.
    """
    _require_real_fundamental(D)
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be even and >= 2")
    return riemann_zeta_neg(k) * dirichlet_l_neg(k, KroneckerCharacter(D))


def _sigma1(n: int) -> int:
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            q = n // d
            if q != d:
                total += q
        d += 1
    return total


def zagier_zeta_minus_one(D: int) -> Fraction:
    """zeta_F(-1) as the finite divisor sum

        (1/60) * sum_{b^2 < D, b^2 == D mod 4} sigma_1((D - b^2) / 4),

    b running over all integers (negative b included).  An independent
    route to dedekind_zeta_neg(D, 2); the two are compared exactly in the
    verification layer.
    """
    _require_real_fundamental(D)
    total = 0
    b = D % 2
    while b * b < D:
        term = _sigma1((D - b * b) // 4)
        total += term if b == 0 else 2 * term
        b += 2
    return Fraction(total, 60)

"""Exact rational special values.

Everything in this module is computed in exact arithmetic
(``fractions.Fraction`` over Python integers): Bernoulli numbers,
Kronecker symbols, generalized Bernoulli numbers attached to quadratic
characters, and the negative special values of Dedekind zeta functions
built from them.  No floating point enters at any stage, so
equalities between these values are decidable and are used as such by the
verification layer.

One trial division, ``_factorize``, serves every integer factorization
in the package: single primality tests, squarefreeness, the
prime-discriminant factors of a character table, divisor sums, and the
rational primes below an ideal (``hmf_coeffs.factor_ideal``); one sieve,
``_primes_up_to``, gives the primes up to a limit (``narrow_one_fields``).

The negative zeta values of many fields come from one kernel,
``_fill_power_sum_rows``: it returns the centered power-sum rows of many
characters from one pass over a shared table of odd offset powers, each
character reading only its prefix sum, its zeros and its non-residues
(``S_j = A_j - Z_j - 2 N_j``), and keeps none of them.  With a prime
modulus the same kernel gives the rows' residues, and ``zeta_residues``
turns them into zeta_F(1-k) mod ``ZETA_MODULUS``.  The memos on this
route hold values only: ``dedekind_zeta_neg`` per (D, k), and the
residue rows of ``zeta_residues`` per discriminant.
``exact_identity_scan`` and the equal-weight section ask for the residues
once for all their fields: nonvanishing of a residual is proven modulo
that prime, and the exact ``Fraction`` values only confirm a residue that
vanishes.

Conventions:

* ``bernoulli(1) == -1/2`` (the "first" convention).
* ``zeta_F(1-k) == B_k B_{k,chi} / k^2`` for even ``k >= 2``, the product
  of ``zeta(1-k) == -B_k/k`` and ``L(1-k, chi) == -B_{k,chi}/k``.
  ``dedekind_zeta_neg`` takes ``zeta_F(-1)`` (k = 2) from Zagier's divisor
  sum instead, and the tests check it against this product.
* Discriminants passed to character or field constructors must be
  fundamental; this is validated, not assumed.  ``KroneckerCharacter`` is
  a ``NamedTuple`` subclass whose ``__new__`` validates it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Bernoulli numbers


# B_0..B_N for the largest N asked for so far; shorter rows are prefixes.
# Rebound, never mutated, so a concurrent caller always reads a whole row.
_bernoulli_numbers: tuple[Fraction, ...] = (Fraction(1),)


def _bernoulli_row(n: int) -> tuple[Fraction, ...]:
    # The whole row B_0..B_N with N >= n, not a copy.  A longer row is
    # rebuilt from the tangent numbers T_1..T_{N/2}, integers from the
    # recurrence of Brent and Harvey (2011), through
    # B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)); B_1 = -1/2 and the
    # other odd entries are 0.
    global _bernoulli_numbers
    row = _bernoulli_numbers
    if len(row) <= n:
        m = n // 2
        tangent = [0, 1] + [0] * (m - 1)  # tangent[j] = T_j
        for j in range(2, m + 1):
            tangent[j] = (j - 1) * tangent[j - 1]
        for k in range(2, m + 1):
            for j in range(k, m + 1):
                tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
        grown = [Fraction(1), Fraction(-1, 2)]
        for j in range(1, m + 1):
            q = 4**j
            b = Fraction(2 * j * tangent[j], q * (q - 1))
            grown += [b if j % 2 else -b, Fraction(0)]
        row = _bernoulli_numbers = tuple(grown[: n + 1])
    return row


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


def _factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, primes ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in _factorize(abs(n)))


@lru_cache(maxsize=None)
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
    return n >= 2 and _factorize(n) == [(n, 1)]


def _primes_up_to(n: int) -> bytearray:
    """Sieve of Eratosthenes: entry i is 1 exactly when i is prime, for
    0 <= i <= n."""
    # past the memory limit, a repeated bytearray also prints a SystemError
    # on CPython 3.10, 3.11 and 3.13; one copied from bytes does not
    sieve = bytearray(b"\x01" * (n + 1))
    sieve[:2] = bytes(len(sieve[:2]))
    for p in range(2, math.isqrt(max(n, 0)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return sieve


class _KroneckerFields(NamedTuple):
    discriminant: int
    period: int


class KroneckerCharacter(_KroneckerFields):
    """The quadratic character chi(n) = (discriminant / n).

    Periodic modulo ``period == abs(discriminant)``; primitive exactly when
    the discriminant is fundamental, which the constructor enforces.
    """

    __slots__ = ()

    def __new__(cls, discriminant: int):
        if not is_fundamental_discriminant(discriminant) or discriminant == 1:
            raise ValueError(
                f"{discriminant} is not a fundamental discriminant"
            )
        return tuple.__new__(cls, (discriminant, abs(discriminant)))

    def __getnewargs__(self):
        return (self.discriminant,)

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
        two_part = self.discriminant
        for p, _ in _factorize(f):
            if p > 2:
                two_part //= p if p % 4 == 1 else -p
                legendre = [-1] * p
                legendre[0] = 0
                for square in {a * a % p for a in range(1, p // 2 + 1)}:
                    legendre[square] = 1
                factors.append(legendre)
        if two_part != 1:
            factors.append(_TWO_PART_TABLES[two_part])
        table = [1] * f
        for factor in factors:
            table = list(map(operator.mul, table, factor * (f // len(factor))))
        return tuple(table)

    def power_sums(self, i: int) -> tuple[int, ...]:
        """T_p, T_{p+2}, ... through T_i, where p = 0 for even chi
        and p = 1 for odd chi; T_j = sum_{a=1}^{period} chi(a) (2a - period)^j.

        The reflection a -> period - a fixes T_j up to the sign
        chi(-1) (-1)^j, so T_j = 0 unless (-1)^j = chi(-1), and the row
        holds only the other parity.  It is the row that
        ``_fill_power_sum_rows``, the kernel that builds the rows of many
        characters in one pass, returns for this one character.  Nothing
        is kept: the values built from it are memoised instead
        (``dedekind_zeta_neg``).
        """
        return _fill_power_sum_rows({self.discriminant: i})[self.discriminant]


class _PendingRow(NamedTuple):
    # a power-sum row that _fill_power_sum_rows builds: its first length
    # sums, over the first n offsets of the shared table, with the masks of
    # the offsets where chi(a) = 0 (empty when there are none) and where
    # chi(a) = -1; even for an even period, whose terms carry 2^j
    discriminant: int
    length: int
    even: bool
    n: int
    zeros: bytes
    minus: bytes
    sums: list[int]


# chi_{-4}, chi_8 and chi_{-8} on one period
_TWO_PART_TABLES = {
    -4: [0, 1, 0, -1],
    8: [0, 1, 0, -1, 0, -1, 0, 1],
    -8: [0, 1, 0, 1, 0, -1, 0, -1],
}


def _fill_power_sum_rows(
    targets: dict[int, int], modulus: int = 0
) -> dict[int, tuple[int, ...]]:
    """The power-sum row of each discriminant through its target index,
    for all of them in one pass; nothing is stored.

    For (-1)^j = chi(-1), T_j = 2 chi(-1) S_j with
    S_j = sum_{0 < a < f/2} chi(a) (f - 2a)^j over half the period f.
    Both kinds of period read one shared table of odd offsets o^j:

    * odd f: f - 2a runs over the odd o = 1, 3, ..., f - 2;
    * even f (4 divides f): chi(a) = 0 at even a, and at odd a
      f - 2a = 2o with o = f/2 - a odd in 1 .. f/2 - 1, so the term is
      2^j o^j.

    chi takes only the values 1, 0 and -1, so chi = 1 - [chi = 0] -
    2 [chi = -1], and over the first n offsets of the table
    S_j = A_j - Z_j - 2 N_j (before the factor 2^j of even f): A_j is the
    prefix sum of o^j, shared by every field; Z_j sums o^j where chi(a) = 0,
    which for a prime f is no term at all; N_j sums o^j where
    chi(a) = -1, about a quarter of the period.  One list of o^j per
    parity of j advances for all fields at once, by one multiplication
    with o^2 per step, so no field multiplies anything of its own.

    The default modulus 0 gives the exact rows.  A prime modulus gives
    their residues: the same loop holds the table reduced, o^j mod the
    prime, so every entry stays one small integer.  A target below the
    row's first index gives the empty row.
    """
    rows: dict[int, tuple[int, ...]] = {}
    pending: tuple[list, list] = ([], [])  # by the parity p of the indices
    for delta, i in targets.items():
        p = 1 if delta < 0 else 0  # chi(-1) = -1 exactly for delta < 0
        length = (i - p) // 2 + 1  # T_p, T_{p+2}, ..., T_i
        if length <= 0:
            rows[delta] = ()
            continue
        f = abs(delta)
        table = KroneckerCharacter(delta).value_table()
        # chi(a) at the offsets o = 1, 3, 5, ...
        values = table[(f - 1) // 2 : 0 : -1] if f % 2 else table[f // 2 - 1 : 0 : -2]
        pending[p].append(
            _PendingRow(
                delta,
                length,
                f % 2 == 0,
                len(values),
                bytes(map((0).__eq__, values)) if 0 in values else b"",
                bytes(map((-1).__eq__, values)),
                [],
            )
        )
    for p, fields in enumerate(pending):
        if not fields:
            continue
        # longest rows first, so the finished ones leave from the end
        fields.sort(key=operator.attrgetter("length"), reverse=True)
        width = max(field.n for field in fields)
        squares = [o * o for o in range(1, 2 * width, 2)]
        powers = list(range(1, 2 * width, 2)) if p else [1] * width
        if modulus:
            squares = [q % modulus for q in squares]
            powers = [o % modulus for o in powers]
        j = p
        while True:
            prefix = list(accumulate(powers))  # A_j at n is prefix[n - 1]
            for field in fields:
                s = (
                    prefix[field.n - 1]
                    - sum(compress(powers, field.zeros))
                    - 2 * sum(compress(powers, field.minus))
                )
                if field.even:
                    s <<= j
                s = -2 * s if p else 2 * s
                field.sums.append(s % modulus if modulus else s)
            while fields and len(fields[-1].sums) == fields[-1].length:
                field = fields.pop()
                rows[field.discriminant] = tuple(field.sums)
            if not fields:
                break
            width = max(field.n for field in fields)
            del powers[width:], squares[width:]
            if modulus:
                powers = [x * q % modulus for x, q in zip(powers, squares)]
            else:
                powers = list(map(operator.mul, powers, squares))
            j += 2
    return rows


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers and L-values


@lru_cache(maxsize=None)
def _bernoulli_weights(k: int) -> tuple[int, tuple[int, ...]]:
    # the common denominator den of B_0, B_2, ... up to index k, and
    # C(k, j) B_j (2 - 2^j) den for j = 0, 2, ... <= k
    bern = _bernoulli_row(k)[: k + 1 : 2]
    den = math.lcm(*(b.denominator for b in bern))
    return den, tuple(
        math.comb(k, j) * b.numerator * (den // b.denominator) * (2 - 2**j)
        for j, b in zip(range(0, k + 1, 2), bern)
    )


def generalized_bernoulli(k: int, chi: KroneckerCharacter) -> Fraction:
    """B_{k, chi} for the quadratic character chi of period f.

    B_{k, chi} = f^(k-1) * sum_{a=1}^{f} chi(a) B_k(a/f).  Expanding the
    Bernoulli polynomial at x = 1/2, with B_j(1/2) = (2^(1-j) - 1) B_j
    (zero for odd j) and a/f - 1/2 = (2a - f) / (2f), gives

        B_{k, chi} = sum_{j even} C(k, j) B_j (2 - 2^j) f^j T_{k-j} / (f 2^k)

    with the centered integer power sums T_i = sum_{a=1}^{f} chi(a) (2a - f)^i.
    T_i vanishes unless (-1)^i = chi(-1), so B_{k, chi} = 0 without a
    row when chi(-1) != (-1)^k.  Otherwise every T_{k-j} comes from the
    character's row through T_k (``KroneckerCharacter.power_sums``, one
    pass of the shared-table kernel, kept nowhere), and the weights
    C(k, j) B_j (2 - 2^j) over the common denominator of the B_j are
    memoised per k.  The terms are summed as integers, by Horner's rule
    in f^2, over that denominator times f 2^k, and reduced once, into the
    returned ``Fraction``.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k % 2 != chi.is_odd():
        return Fraction(0)
    f = chi.period
    den, weights = _bernoulli_weights(k)
    f2 = f * f
    numerator = 0
    # T_{k-j} = row[k // 2 - j // 2], so the top weight meets row[0]
    for w, t in zip(reversed(weights), chi.power_sums(k)):
        numerator = numerator * f2 + w * t
    return Fraction(numerator, den * f * 2**k)


@lru_cache(maxsize=None)
def dedekind_zeta_neg(D: int, k: int) -> Fraction:
    """zeta_F(1 - k) for F the real quadratic field of discriminant D.

    Factors as zeta(1 - k) * L(1 - k, chi_D) = B_k B_{k, chi_D} / k^2; k must
    be even and >= 2 (odd k give 0 and are rejected as misuse), D must be a
    fundamental discriminant > 1.  zeta_F(-1) (k = 2) comes from Zagier's
    divisor sum (``zagier_zeta_minus_one``), O(sqrt(D)) small
    factorisations instead of a row of power sums; every other k takes
    the Bernoulli route, as one ``Fraction`` built from the integer
    numerators and denominators of B_k, B_{k, chi_D} and k^2, so the
    product is reduced once, not once per operation.  The tests check the
    k = 2 values against that route too.
    """
    _require_real_fundamental(D)
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be even and >= 2")
    if k == 2:
        return zagier_zeta_minus_one(D)
    b = bernoulli(k)
    g = generalized_bernoulli(k, KroneckerCharacter(D))
    return Fraction(b.numerator * g.numerator, b.denominator * g.denominator * k * k)


# ---------------------------------------------------------------------------
# Zeta values modulo a prime


# the prime modulo which the residual scans prove a residual nonzero: the
# largest below 2^30, so the product of two residues is a small integer
ZETA_MODULUS = 2**30 - 35

# zeta_F(1 - k) mod ZETA_MODULUS for k = 2, 4, ..., by discriminant
_zeta_residue_rows: dict[int, tuple[int, ...]] = {}


@lru_cache(maxsize=None)
def _weight_residues(k: int) -> tuple[int, tuple[int, ...]]:
    # B_k / (den 2^k k^2) as one residue, and the weights C(k, j) B_j
    # (2 - 2^j) den of generalized_bernoulli, top j first, as residues
    P = ZETA_MODULUS
    den, weights = _bernoulli_weights(k)
    b = bernoulli(k)
    scale = b.numerator * pow(b.denominator * den * 2**k * k * k, -1, P) % P
    return scale, tuple(w % P for w in reversed(weights))


def zeta_residues(targets: dict[int, int]) -> dict[int, tuple[int, ...]]:
    """zeta_F(1 - k) mod ``ZETA_MODULUS`` for k = 2, 4, ... through each
    discriminant's target weight; entry k / 2 - 1 of a row is weight k.

    The residue is that of the exact ``dedekind_zeta_neg(D, k)``, on
    ``generalized_bernoulli``'s route: zeta_F(1 - k) = B_k B_{k, chi} / k^2
    with B_{k, chi} = sum_j C(k, j) B_j (2 - 2^j) f^j T_{k-j} / (den f 2^k)
    over even j.  Written as f^(k-1) sum_j w_j V_{k-j} / (den 2^k) with
    V_i = T_i / f^i, each weight costs one dot product of its weights
    (``_weight_residues``) with the field's V, all mod the prime; the T_i
    are the power-sum rows mod the prime, from one kernel pass
    (``_fill_power_sum_rows``) for every row that is too short.

    Every denominator on the route divides f, 2^k, k^2 or the denominator
    of some B_j with j <= k, so its primes are at most max(D, k + 1); a
    modulus above that inverts it, and ``pow`` raises ``ValueError``
    wherever it cannot.  A nonzero residue therefore proves a nonzero
    rational; a zero residue proves nothing.  Rows are memoised per
    discriminant and rebuilt only when asked for a heavier weight;
    ``zeta_residues.cache_clear`` drops them.
    """
    P = ZETA_MODULUS
    memo = _zeta_residue_rows
    short = {D: k for D, k in targets.items() if len(memo.get(D, ())) < k // 2}
    for D in short:
        _require_real_fundamental(D)
    rows = _fill_power_sum_rows(short, P) if short else {}
    for D, k in short.items():
        f2 = D * D % P
        f2_inv = pow(f2, -1, P)
        v, f_inv = [], 1  # V_i = T_i / f^i, f_inv = 1 / f^i
        for t in rows[D]:
            v.append(t * f_inv % P)
            f_inv = f_inv * f2_inv % P
        row, power = [], D  # f^(k-1) at k = 2
        for j in range(2, k + 1, 2):
            scale, weights = _weight_residues(j)
            row.append(sum(map(operator.mul, weights, v)) % P * scale * power % P)
            power = power * f2 % P
        memo[D] = tuple(row)
    return {D: memo[D] for D in targets}


zeta_residues.cache_clear = _zeta_residue_rows.clear


def _prime_power_divisor_sum(q: int, e: int) -> int:
    """1 + q + ... + q^e for q >= 2, in closed form: sigma_{k-1} of a prime
    power N^e is this sum at q = N^(k-1)."""
    return (q ** (e + 1) - 1) // (q - 1)


def _sigma1(n: int) -> int:
    """The sum of the divisors of n >= 1, one closed-form sum per prime power."""
    return math.prod(_prime_power_divisor_sum(p, e) for p, e in _factorize(n))


def zagier_zeta_minus_one(D: int) -> Fraction:
    """zeta_F(-1) as the finite divisor sum (Siegel; Zagier 1976)

        (1/60) * sum_{b^2 < D, b^2 == D mod 4} sigma_1((D - b^2) / 4),

    b running over all integers (negative b included).  This is the route
    ``dedekind_zeta_neg(D, 2)`` takes: about sqrt(D)/2 small divisor sums,
    where the L-value route reads a row of power sums over the period.  The
    test suite checks it exactly against the L-value route
    B_2 B_{2, chi_D} / 4.
    """
    _require_real_fundamental(D)
    total = 0
    b = D % 2
    while b * b < D:
        term = _sigma1((D - b * b) // 4)
        total += term if b == 0 else 2 * term
        b += 2
    return Fraction(total, 60)

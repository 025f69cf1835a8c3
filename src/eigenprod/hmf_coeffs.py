"""Fourier coefficients of parallel-weight Hilbert Eisenstein series.

Over a real quadratic field F of narrow class number one (discriminant
D), the level-one Eisenstein series of even parallel weight k is
normalized here as

    E_k = zeta_F(1 - k) / 4  +  sum_{nu >> 0} sigma_{k-1}((nu)) q^nu,

so its nonzero coefficients are the ideal divisor sums
sigma_{k-1}(a) = sum_{b | a} N(b)^(k-1), computed exactly through the
prime factorization of the ideal.  Elements are written in the integral
basis {1, omega} with omega = (t + sqrt(D)) / 2, t = D mod 2.

Product coefficients are lattice convolutions over totally nonnegative
decompositions; every comparison (total positivity, valuations) is an
exact integer test.  A nonzero totally nonnegative integer is
automatically totally positive (sqrt(D) is irrational), so the boundary
terms of a convolution are exactly mu = 0 and mu = nu.  They carry the
rational constant terms; every interior term is a product of two integer
divisor sums, so the interior is summed in integers.  Each element's
ideal factorization (``factor_ideal``) and its divisor sum at each weight
are memoised, so overlapping convolution windows compute them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .exact import (
    _is_prime,
    _require_real_fundamental,
    dedekind_zeta_neg,
    is_fundamental_discriminant,
    kronecker,
)
from .quadfield import class_number_imaginary, narrow_class_number


class PrimeClass(Enum):
    INERT = "Inert"
    SPLIT_FACTOR = "SplitFactor"
    RAMIFIED = "Ramified"


@lru_cache(maxsize=None)
def _omega_params(D: int) -> tuple[int, int]:
    # omega has minimal polynomial z^2 - t z + m with t^2 - 4m = D
    _require_real_fundamental(D)
    if D % 2 == 1:
        return 1, (1 - D) // 4
    return 0, -(D // 4)


def element_trace(D: int, x: int, y: int) -> int:
    t, _ = _omega_params(D)
    return 2 * x + t * y


def element_norm(D: int, x: int, y: int) -> int:
    t, m = _omega_params(D)
    return x * x + t * x * y + m * y * y


def is_totally_nonnegative(D: int, x: int, y: int) -> bool:
    # both embeddings (trace +- y sqrt(D)) / 2 nonnegative
    return element_trace(D, x, y) >= 0 and element_norm(D, x, y) >= 0


@dataclass(frozen=True)
class TotallyPositiveElement:
    """x + y*omega, constrained to be totally positive or zero."""

    discriminant: int
    x: int
    y: int

    def __post_init__(self):
        if not is_totally_nonnegative(self.discriminant, self.x, self.y):
            raise ValueError(
                f"({self.x}, {self.y}) is not totally nonnegative for D={self.discriminant}"
            )

    def trace(self) -> int:
        return element_trace(self.discriminant, self.x, self.y)

    def norm(self) -> int:
        return element_norm(self.discriminant, self.x, self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def minus(self, other: "TotallyPositiveElement") -> tuple[int, int]:
        return self.x - other.x, self.y - other.y


@dataclass(frozen=True)
class IdealFactorization:
    """Integral ideal as (primeNorm, class, exponent) entries.

    primeNorm is the absolute norm of the prime ideal: p^2 for inert p,
    p for split factors and ramified primes.  Both factors above a split
    p appear as separate SplitFactor entries; exchanging them is the
    Galois symmetry and leaves every quantity computed from the
    factorization unchanged, so entries are kept in the canonical order
    (primeNorm ascending, exponent descending).
    """

    entries: tuple[tuple[int, PrimeClass, int], ...]

    def norm(self) -> int:
        n = 1
        for prime_norm, _, e in self.entries:
            n *= prime_norm**e
        return n


def ideal_from_prime_powers(
    D: int, entries: list[tuple[int, PrimeClass, int]]
) -> IdealFactorization:
    """Validate and canonicalize a list of prime-power entries.

    Rejects exponents < 1, prime norms inconsistent with how the
    underlying rational prime behaves in the field, and split
    entries listing more than two factors above one prime.
    """
    _require_real_fundamental(D)
    split_seen: dict[int, int] = {}
    checked = []
    for prime_norm, cls, e in entries:
        if e < 1:
            raise ValueError("exponents must be >= 1")
        if cls is PrimeClass.INERT:
            p = math.isqrt(prime_norm)
            if p * p != prime_norm or not _is_prime(p):
                raise ValueError(f"inert prime norm {prime_norm} is not p^2")
            if kronecker(D, p) != -1:
                raise ValueError(f"{p} is not inert for D={D}")
        elif cls is PrimeClass.SPLIT_FACTOR:
            if not _is_prime(prime_norm):
                raise ValueError(f"split prime norm {prime_norm} is not prime")
            if kronecker(D, prime_norm) != 1:
                raise ValueError(f"{prime_norm} is not split for D={D}")
            split_seen[prime_norm] = split_seen.get(prime_norm, 0) + 1
            if split_seen[prime_norm] > 2:
                raise ValueError(f"more than two factors above split prime {prime_norm}")
        elif cls is PrimeClass.RAMIFIED:
            if not _is_prime(prime_norm):
                raise ValueError(f"ramified prime norm {prime_norm} is not prime")
            if kronecker(D, prime_norm) != 0:
                raise ValueError(f"{prime_norm} is not ramified for D={D}")
        else:
            raise ValueError(f"unknown prime class {cls!r}")
        checked.append((prime_norm, cls, e))
    non_split = [(pn, cls) for pn, cls, _ in checked if cls is not PrimeClass.SPLIT_FACTOR]
    if len(set(non_split)) != len(non_split):
        raise ValueError("repeated non-split prime entry")
    checked.sort(key=lambda t: (t[0], -t[2], t[1].value))
    return IdealFactorization(tuple(checked))


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return sorted(out)


@lru_cache(maxsize=None)
def _split_root(D: int, p: int, k: int) -> int:
    """Root of z^2 - t z + m modulo p^k, Newton-lifted from a brute-forced
    base root; the derivative 2r - t is a unit mod p for split p (odd p
    because the discriminant is a nonzero square mod p, p = 2 because t
    is odd when 2 splits)."""
    t, m = _omega_params(D)
    r = next(z for z in range(p) if (z * z - t * z + m) % p == 0)
    target = p**k
    mod = p
    while mod < target:
        mod = min(mod * mod, target)
        deriv_inv = pow(2 * r - t, -1, mod)
        r = (r - (r * r - t * r + m) * deriv_inv) % mod
    return r


@lru_cache(maxsize=None)
def factor_ideal(D: int, x: int, y: int = 0) -> IdealFactorization:
    """Factorization of the principal ideal (x + y*omega), computed once
    per element.

    Split valuations: with r a root of the minimal polynomial mod
    p^(e+1), the valuation at the factor (p, omega - r) is
    min(v_p(x + y r), e) and the conjugate takes the rest, since the two
    valuations sum to v_p(norm) = e.
    """
    _require_real_fundamental(D)
    n = element_norm(D, x, y)
    if n == 0:
        raise ValueError("the zero element generates no ideal")
    n = abs(n)
    entries: list[tuple[int, PrimeClass, int]] = []
    for p, e in _factorize(n):
        chi = kronecker(D, p)
        if chi == -1:
            if e % 2 != 0:
                raise ArithmeticError(f"odd inert valuation at {p} (impossible)")
            entries.append((p * p, PrimeClass.INERT, e // 2))
        elif chi == 0:
            entries.append((p, PrimeClass.RAMIFIED, e))
        else:
            r = _split_root(D, p, e + 1)
            z = x + y * r
            v1 = 0
            while v1 < e and z % p == 0:
                z //= p
                v1 += 1
            v2 = e - v1
            for v in sorted((v1, v2), reverse=True):
                if v > 0:
                    entries.append((p, PrimeClass.SPLIT_FACTOR, v))
    return ideal_from_prime_powers(D, entries)


def ideals_of_norm(D: int, n: int) -> list[IdealFactorization]:
    """All integral ideals of absolute norm exactly n."""
    _require_real_fundamental(D)
    if n < 1:
        raise ValueError("norm must be positive")
    variants: list[list[list[tuple[int, PrimeClass, int]]]] = []
    for p, e in _factorize(n):
        chi = kronecker(D, p)
        if chi == -1:
            if e % 2 != 0:
                return []
            variants.append([[(p * p, PrimeClass.INERT, e // 2)]])
        elif chi == 0:
            variants.append([[(p, PrimeClass.RAMIFIED, e)]])
        else:
            opts = []
            for i in range(e + 1):
                entry = []
                if i > 0:
                    entry.append((p, PrimeClass.SPLIT_FACTOR, i))
                if e - i > 0:
                    entry.append((p, PrimeClass.SPLIT_FACTOR, e - i))
                opts.append(entry)
            variants.append(opts)
    out = []
    def assemble(idx: int, acc: list[tuple[int, PrimeClass, int]]):
        if idx == len(variants):
            out.append(ideal_from_prime_powers(D, list(acc)))
            return
        for opt in variants[idx]:
            assemble(idx + 1, acc + opt)
    assemble(0, [])
    # conjugate split choices p^i pbar^(e-i) and p^(e-i) pbar^i are
    # distinct ideals that canonicalize to equal entry tuples; they are
    # kept as separate list items so |result| counts ideals correctly
    # (sum over d | n of chi_D(d))
    return out


# ---------------------------------------------------------------------------
# Eisenstein series


@dataclass(frozen=True)
class EisensteinDescriptor:
    """Parallel-weight Eisenstein series E_k over the field of
    discriminant D, with constant term zeta_F(1 - k) / 4."""

    discriminant: int
    weight: int
    constant_term: Fraction

    def __init__(self, discriminant: int, weight: int):
        if weight < 2 or weight % 2 != 0:
            raise ValueError("weight must be even and >= 2")
        object.__setattr__(self, "discriminant", discriminant)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(
            self, "constant_term", dedekind_zeta_neg(discriminant, weight) / 4
        )


def _divisor_sum(k: int, ideal: IdealFactorization) -> int:
    total = 1
    for prime_norm, _, e in ideal.entries:
        q = prime_norm ** (k - 1)
        total *= sum(q**i for i in range(e + 1))
    return total


def eisenstein_coeff(form: EisensteinDescriptor, ideal: IdealFactorization) -> int:
    """sigma_{k-1}(ideal) = prod over prime powers of sum_i N^(i (k-1))."""
    return _divisor_sum(form.weight, ideal)


@lru_cache(maxsize=None)
def _element_divisor_sum(D: int, k: int, x: int, y: int) -> int:
    # sigma_{k-1}((x + y omega)), once per element and weight: the
    # convolution windows of neighbouring nu overlap almost entirely
    return _divisor_sum(k, factor_ideal(D, x, y))


def coefficient(form: EisensteinDescriptor, nu: TotallyPositiveElement) -> Fraction:
    if nu.discriminant != form.discriminant:
        raise ValueError("element and form live over different fields")
    if nu.is_zero():
        return form.constant_term
    return Fraction(eisenstein_coeff(form, factor_ideal(form.discriminant, nu.x, nu.y)))


def hecke_recurrence_check(
    form: EisensteinDescriptor, prime_norm: int, j_max: int
) -> bool:
    """Verify c(p^(j+1)) = c(p) c(p^j) - N^(k-1) c(p^(j-1)) for j < j_max,
    where c(p^j) is the prime-power divisor sum at a prime of norm
    prime_norm."""
    k = form.weight
    q = prime_norm ** (k - 1)
    def c(j: int) -> int:
        return sum(q**i for i in range(j + 1))
    return all(c(j + 1) == c(1) * c(j) - q * c(j - 1) for j in range(1, j_max))


def _combination_bound(m: int) -> int:
    # a_0 = 1, a_1 = 2, a_{m+2} = 2 a_{m+1} + a_m; dominates m + 1 and is
    # itself dominated by 3^m, which is the bound used downstream
    a, b = 1, 2
    if m == 0:
        return 1
    for _ in range(m - 1):
        a, b = b, 2 * b + a
    return b


def coeff_bound_check(form: EisensteinDescriptor, max_norm: int) -> bool:
    """Check |c(a)| <= N(a)^(k+1) for every ideal a of norm <= max_norm,
    along with the prime-power intermediate bound
    c(p^m) <= a_m N(p)^(m (k-1)) <= 3^m N(p)^(m (k-1))."""
    k = form.weight
    D = form.discriminant
    for n in range(2, max_norm + 1):
        for ideal in ideals_of_norm(D, n):
            c = eisenstein_coeff(form, ideal)
            if c > n ** (k + 1):
                return False
            for prime_norm, _, e in ideal.entries:
                q = prime_norm ** (k - 1)
                cp = sum(q**i for i in range(e + 1))
                a_e = _combination_bound(e)
                if not (cp <= a_e * q**e <= 3**e * q**e):
                    return False
    return True


# ---------------------------------------------------------------------------
# Products


def _nonneg_points(
    D: int, trace_bound: int, cap: tuple[int, int] | None = None
) -> Iterator[tuple[int, int]]:
    # (x, y) of trace 1..trace_bound, by trace, that are totally
    # nonnegative: the embeddings (s +- y sqrt(D)) / 2 of an element of
    # trace s are >= 0 exactly when y^2 D <= s^2.  With cap = (trace, y)
    # of some nu, only the points with nu - (x, y) totally nonnegative.
    t, _ = _omega_params(D)
    for s in range(1, trace_bound + 1):
        y_max = math.isqrt(s * s // D)
        lo, hi = -y_max, y_max
        if cap is not None:
            gap = math.isqrt((cap[0] - s) ** 2 // D)
            lo, hi = max(lo, cap[1] - gap), min(hi, cap[1] + gap)
        for y in range(lo, hi + 1):
            if (s - t * y) % 2 == 0:  # x = (s - t y) / 2 must be an integer
                yield (s - t * y) // 2, y


def enumerate_totally_nonneg(
    D: int, trace_bound: int, include_zero: bool = False
) -> list[TotallyPositiveElement]:
    """Totally nonnegative integers of trace <= trace_bound, by trace."""
    _require_real_fundamental(D)
    out = [TotallyPositiveElement(D, 0, 0)] if include_zero else []
    out.extend(TotallyPositiveElement(D, x, y) for x, y in _nonneg_points(D, trace_bound))
    return out


def product_coefficient(
    f: EisensteinDescriptor, h: EisensteinDescriptor, nu: TotallyPositiveElement
) -> Fraction:
    """Coefficient of q^nu in the product f * h: the convolution

        sum_{mu + mu' = nu, both totally nonnegative} c_f(mu) c_h(mu').

    The decompositions mu = 0 and mu = nu contribute the constant-term
    cross terms; every other term is an integer product of two divisor
    sums, so the interior is summed in integers.
    """
    if f.discriminant != h.discriminant:
        raise ValueError("forms live over different fields")
    D = f.discriminant
    if nu.discriminant != D:
        raise ValueError("element and forms live over different fields")
    if nu.is_zero():
        return f.constant_term * h.constant_term
    kf, kh = f.weight, h.weight
    boundary = (
        f.constant_term * _element_divisor_sum(D, kh, nu.x, nu.y)
        + h.constant_term * _element_divisor_sum(D, kf, nu.x, nu.y)
    )
    trace = nu.trace()
    interior = sum(
        _element_divisor_sum(D, kf, x, y)
        * _element_divisor_sum(D, kh, nu.x - x, nu.y - y)
        for x, y in _nonneg_points(D, trace - 1, (trace, nu.y))
    )
    return boundary + interior


@dataclass(frozen=True)
class SqrtFiveIdentityReport:
    trace_bound: int
    scalar: Fraction
    constant_term_ok: bool
    coefficients_checked: int
    mismatches: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.constant_term_ok and not self.mismatches


def verify_sqrt5_identity(trace_bound: int) -> SqrtFiveIdentityReport:
    """Re-establish E_4 = 60 * E_2^2 over Q(sqrt 5) coefficient by
    coefficient, for every totally nonnegative nu of trace <= trace_bound.

    The scalar is forced by the constant terms: 1 / (2 c_0(E_2)) = 60,
    and then 60 * c_0(E_2)^2 = 60 / 120^2 = 1/240 = zeta_F(-3)/4 must
    equal c_0(E_4).
    """
    if trace_bound < 0:
        raise ValueError("trace bound must be >= 0")
    e2 = EisensteinDescriptor(5, 2)
    e4 = EisensteinDescriptor(5, 4)
    scalar = 1 / (2 * e2.constant_term)
    constant_ok = (
        scalar == 60 and scalar * e2.constant_term**2 == e4.constant_term
    )
    mismatches = []
    checked = 0
    for nu in enumerate_totally_nonneg(5, trace_bound):
        lhs = scalar * product_coefficient(e2, e2, nu)
        rhs = coefficient(e4, nu)
        checked += 1
        if lhs != rhs:
            mismatches.append(
                f"nu=({nu.x},{nu.y}): 60*conv={lhs} vs sigma_3={rhs}"
            )
    return SqrtFiveIdentityReport(
        trace_bound, scalar, constant_ok, checked, tuple(mismatches)
    )


# ---------------------------------------------------------------------------
# Cusp space dimension lower bound


def cusp_dim_lower_bound(D: int, k: int) -> Fraction:
    """Lower bound for dim S_{2k}(SL2(O_F)), parallel weight 2k, D > 12:

        2k(k-1) zeta_F(-1) + 1 - h(-3D) delta_k / 6,

    delta_k = 1 iff k = 2 mod 3.  Uses chi(Gamma) >= 1 (the full Euler
    characteristic adds dim S_2 >= 0 to 1), an elliptic-point count
    through h(-3D), and no further correction because narrow class
    number one forces the unit norm to be -1, every odd prime divisor of
    D to be 1 mod 4, hence 3 to not divide D and -3D to stay fundamental.
    """
    if D <= 12:
        raise ValueError("the bound requires D > 12")
    _require_real_fundamental(D)
    if narrow_class_number(D) != 1:
        raise ValueError("the bound is stated for narrow class number one")
    if k < 2:
        raise ValueError("k must be >= 2")
    d3 = -3 * D
    if not is_fundamental_discriminant(d3):
        raise ArithmeticError(f"-3D = {d3} unexpectedly not fundamental")
    delta = 1 if k % 3 == 2 else 0
    bound = 2 * k * (k - 1) * dedekind_zeta_neg(D, 2) + 1
    if delta:
        bound -= Fraction(class_number_imaginary(d3), 6)
    return bound

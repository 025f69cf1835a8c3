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
exact integer test.  A form's coefficients up to a trace bound are held
in one table shape, integer rows grouped by trace over one denominator
(the constant term's, for E_k).  Products multiply packed rows (Kronecker
substitution): a row is one integer sum c_i 2^(w i), a pair of traces one
integer product; w is 2 bits over max|a| max|b| times the entry count,
and each output slot, biased by 2^(w - 1), unpacks to a signed entry.
Exact linear combinations put their terms over the lcm of the
denominators, so the gap 60 E_2^2 - E_4 of an identity is one table.
Factorizations (``factor_ideal``) are memoised, divisor sums are not;
each prime-power factor of a divisor sum is one closed form
(``exact._prime_power_divisor_sum``).

The exact constant-term residuals of the product identities, and the scan
over them, close the module: each residual is the constant-term side of a
comparison between Eisenstein products, so it lives beside the
coefficients it stands for.

The records are ``NamedTuple``s; ``EisensteinDescriptor`` subclasses one
to validate the weight and derive the constant term in ``__new__``.
Elements are integer pairs (x, y), never records.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .exact import (
    ZETA_MODULUS,
    _factorize,
    _prime_power_divisor_sum,
    _require_real_fundamental,
    dedekind_zeta_neg,
    is_fundamental_discriminant,
    kronecker,
    zeta_residues,
)
from .quadfield import (
    Splitting,
    _narrow_class_number_is_one,
    class_number_imaginary,
    narrow_one_fields,
)


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


def element_norm(D: int, x: int, y: int) -> int:
    t, m = _omega_params(D)
    return x * x + t * x * y + m * y * y


class IdealFactorization(NamedTuple):
    """Integral ideal as (primeNorm, class, exponent) entries.

    primeNorm is the absolute norm of the prime ideal: p^2 for inert p,
    p for split factors and ramified primes.  Both factors above a split
    p appear as separate SplitFactor entries; exchanging them is the
    Galois symmetry and leaves every quantity computed from the
    factorization unchanged, so entries are kept in the canonical order
    (primeNorm ascending, exponent descending).
    """

    entries: tuple[tuple[int, PrimeClass, int], ...]


def _canonical_order(entry: tuple[int, PrimeClass, int]) -> tuple[int, int, str]:
    return entry[0], -entry[2], entry[1].value


@lru_cache(maxsize=None)
def factor_ideal(D: int, x: int, y: int = 0) -> IdealFactorization:
    """Factorization of the principal ideal (x + y*omega), computed once
    per element.

    Split valuations come from the content c = gcd(x, y), with no root
    of the minimal polynomial: they are v_p(c) and e - v_p(c), where
    e = v_p(norm).  Write nu = c nu'.  Since {1, omega} is a Z-basis of
    O_F, no rational prime divides nu', so at most one of the factors P,
    P' above a split p divides nu' (both would put (p) = P P' under it).
    Hence one of them takes exactly v_p(c) and the other the rest of e.
    (For inert p, likewise e = 2 v_p(c); ramified p keeps (p, e).)  The
    loop knows each prime and its class, so the entries are only put in
    canonical order, not re-checked.
    """
    _require_real_fundamental(D)
    n = element_norm(D, x, y)
    if n == 0:
        raise ValueError("the zero element generates no ideal")
    n, c = abs(n), math.gcd(x, y)
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
            v1 = 0
            while c % p == 0:
                c //= p
                v1 += 1
            entries += [(p, PrimeClass.SPLIT_FACTOR, v) for v in (v1, e - v1) if v > 0]
    return IdealFactorization(tuple(sorted(entries, key=_canonical_order)))


# ---------------------------------------------------------------------------
# Eisenstein series


class _EisensteinFields(NamedTuple):
    discriminant: int
    weight: int
    constant_term: Fraction


class EisensteinDescriptor(_EisensteinFields):
    """Parallel-weight Eisenstein series E_k over the field of
    discriminant D, with constant term zeta_F(1 - k) / 4."""

    __slots__ = ()

    def __new__(cls, discriminant: int, weight: int):
        if weight < 2 or weight % 2 != 0:
            raise ValueError("weight must be even and >= 2")
        constant_term = dedekind_zeta_neg(discriminant, weight) / 4
        return tuple.__new__(cls, (discriminant, weight, constant_term))

    def __getnewargs__(self):
        return (self.discriminant, self.weight)


def eisenstein_coeff(form: EisensteinDescriptor, ideal: IdealFactorization) -> int:
    """sigma_{k-1}(ideal) = prod over prime powers P^e of sum_{i <= e}
    N(P)^(i (k-1)), each factor in closed form (N(P)^((e+1)(k-1)) - 1) /
    (N(P)^(k-1) - 1) from ``exact._prime_power_divisor_sum``.  The factors
    are multiplied in a plain loop: an ideal has few prime-power entries,
    and a generator under ``math.prod`` costs more than the products."""
    k1 = form.weight - 1
    total = 1
    for prime_norm, _, e in ideal.entries:
        total *= _prime_power_divisor_sum(prime_norm**k1, e)
    return total


# ---------------------------------------------------------------------------
# Products


def _trace_rows(D: int, trace_bound: int) -> list[range]:
    # rows[s]: the y of the totally nonnegative x + y omega of trace s,
    # ascending, for s = 0..trace_bound.  The embeddings (s +- y sqrt(D)) / 2
    # are >= 0 exactly when y^2 D <= s^2, and x = (s - t y) / 2 must be an
    # integer: y = s mod 2 when t = 1, s even when t = 0
    t, _ = _omega_params(D)
    rows = []
    for s in range(trace_bound + 1):
        y_max = math.isqrt(s * s // D)
        if t:
            rows.append(range(-y_max + (s + y_max) % 2, y_max + 1, 2))
        else:
            rows.append(range(-y_max, y_max + 1) if s % 2 == 0 else range(0))
    return rows


class _Table(NamedTuple):
    # a form's coefficients over the field of discriminant D up to one trace
    # bound, as integer rows over one denominator: rows[s][i] = den * c(nu)
    # for the i-th nu of trace s in _trace_rows order, and rows[0] =
    # [den * c(0)]
    discriminant: int
    den: int
    rows: list[list[int]]


def _eisenstein_table(form: EisensteinDescriptor, trace_bound: int) -> _Table:
    D = form.discriminant
    t, _ = _omega_params(D)
    c0 = form.constant_term
    den = c0.denominator
    rows = [[c0.numerator]]
    rows += (
        [den * eisenstein_coeff(form, factor_ideal(D, (s - t * y) // 2, y)) for y in ys]
        for s, ys in enumerate(_trace_rows(D, trace_bound)[1:], 1)
    )
    return _Table(D, den, rows)


def _convolve(a: _Table, b: _Table) -> _Table:
    # the table of the product: c(nu) = sum of a(mu) b(mu') over mu + mu' =
    # nu, both totally nonnegative, zero included.  By trace, the y form one
    # progression of step 1 or 2, so each pair of traces (s1, s2) is one
    # product of rows packed as sum c_i 2^(w i), shifted into packed row
    # s1 + s2.  An output entry sums at most n products, n the entries of a,
    # so |c| <= n max|a| max|b| < 2^(w - 2) for the width w below, and each
    # slot plus the bias 2^(w - 1) lies in [0, 2^w) and decodes exactly
    D = a.discriminant
    bound = len(a.rows) - 1
    step = 2 if _omega_params(D)[0] else 1
    ys = _trace_rows(D, bound)
    bits = sum(max(abs(c) for row in t.rows for c in row).bit_length() for t in (a, b))
    width = (bits + sum(map(len, a.rows)).bit_length() + 9) // 8  # w / 8 bytes
    half = 1 << (8 * width - 1)
    bias = half.to_bytes(width, "little")

    def pack(row: list[int]) -> int:
        biased = b"".join((c + half).to_bytes(width, "little") for c in row)
        return int.from_bytes(biased, "little") - int.from_bytes(bias * len(row), "little")

    def unpack(v: int, n: int) -> list[int]:
        data = (v + int.from_bytes(bias * n, "little")).to_bytes(width * n, "little")
        cut = range(0, width * n, width)
        return [int.from_bytes(data[i : i + width], "little") - half for i in cut]

    left = list(map(pack, a.rows))
    right = left if b is a else list(map(pack, b.rows))
    out = [0] * (bound + 1)
    for s1, p in enumerate(left):
        for s2, q in enumerate(right[: bound - s1 + 1] if p else ()):
            if q:
                first = (ys[s1].start + ys[s2].start - ys[s1 + s2].start) // step
                out[s1 + s2] += p * q << 8 * width * first
    return _Table(D, a.den * b.den, [unpack(v, len(y)) for v, y in zip(out, ys)])


def _combine(terms: list[tuple[Fraction | int, _Table]]) -> _Table:
    # sum c f over the (c, f) in terms, of one field and trace bound: rows
    # brought over the lcm of the c.denominator * f.den, added entry by entry
    D, size = terms[0][1].discriminant, len(terms[0][1].rows)
    if any(f.discriminant != D or len(f.rows) != size for _, f in terms):
        raise ValueError("tables over different fields or trace bounds")
    pairs = [(Fraction(c), f) for c, f in terms]
    den = math.lcm(*(c.denominator * f.den for c, f in pairs))
    scales = [c.numerator * (den // (c.denominator * f.den)) for c, f in pairs]
    rows = [
        [sum(map(mul, scales, entries)) for entries in zip(*row_set)]
        for row_set in zip(*(f.rows for _, f in pairs))
    ]
    return _Table(D, den, rows)


class SqrtFiveIdentityReport(NamedTuple):
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
    equal c_0(E_4).  The coefficients are compared as one exact table,
    60 E_2^2 - E_4: each nonzero entry of trace >= 1 is a mismatch, listed
    by trace, nu = ((s - y) / 2, y), both sides read from their tables.
    """
    if trace_bound < 0:
        raise ValueError("trace bound must be >= 0")
    e2 = EisensteinDescriptor(5, 2)
    e4 = EisensteinDescriptor(5, 4)
    scalar = 1 / (2 * e2.constant_term)
    constant_ok = (
        scalar == 60 and scalar * e2.constant_term**2 == e4.constant_term
    )
    e2_table = _eisenstein_table(e2, trace_bound)
    conv, e4_table = _convolve(e2_table, e2_table), _eisenstein_table(e4, trace_bound)
    gap = _combine([(scalar, conv), (-1, e4_table)])
    mismatches = [
        f"nu=({(s - y) // 2},{y}): 60*conv={scalar * Fraction(conv.rows[s][i], conv.den)}"
        f" vs sigma_3={Fraction(e4_table.rows[s][i], e4_table.den)}"
        for s, ys in enumerate(_trace_rows(5, trace_bound)[1:], 1)
        for i, y in enumerate(ys)
        if gap.rows[s][i]
    ]
    checked = sum(map(len, gap.rows[1:]))
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
    if not _narrow_class_number_is_one(D):
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


# ---------------------------------------------------------------------------
# Constant-term residuals and the exact residual scan


def _unequal_residual(a, b, c):
    # (A + B) C - A B, A, B, C the zeta values at 1 - k1, 1 - k2 and
    # 1 - k1 - k2: zero exactly when E_k1 E_k2 is a multiple of E_{k1+k2}
    # in the constant term.  On exact values it is a Fraction; on residues
    # mod ZETA_MODULUS, an integer whose residue is the residual's
    return (a + b) * c - a * b


@lru_cache(maxsize=None)
def _inert_multiplier(k: int) -> int:
    return 4 ** (2 * k - 1) - 4 ** (k - 1)


def _inert_residual(k: int, a, c):
    # m A^2 - 4 C, m = 4^(2k-1) - 4^(k-1), A and C the zeta values at
    # 1 - k and 1 - 2k, exact or as residues, like _unequal_residual
    return _inert_multiplier(k) * a * a - 4 * c


def residual_inert(D: int, k: int) -> Fraction:
    """Exact constant-term residual of the equal-weight identity, 2 inert.

    Zero exactly when (4^(2k-1) - 4^(k-1)) zeta_F(1-k)^2 = 4 zeta_F(1-2k).
    The scan and the equal-weight section read it only through
    ``_inert_vanishes``, where a residue mod ``ZETA_MODULUS`` has already
    vanished, so every vanishing they report is decided here, exactly.
    """
    return _inert_residual(k, dedekind_zeta_neg(D, k), dedekind_zeta_neg(D, 2 * k))


def _inert_vanishes(D: int, k: int, a: int, c: int) -> bool:
    # whether residual_inert(D, k) vanishes, given the residues a and c of
    # zeta_F(1-k) and zeta_F(1-2k) mod ZETA_MODULUS: a nonzero residue
    # proves the residual nonzero, and only a vanishing one is decided on
    # the exact values
    return _inert_residual(k, a, c) % ZETA_MODULUS == 0 and residual_inert(D, k) == 0


def residual_noninert(k: int) -> int:
    """Equal-weight residual factor when 2 splits or ramifies; never zero.

    Narrow class number one gives a prime above 2 a totally positive
    generator pi of norm 2.  No interior split mu + mu' = pi exists: for
    totally positive mu and mu', sqrt N(mu + mu') >= sqrt N(mu) +
    sqrt N(mu') >= 2 by Cauchy-Schwarz over the two embeddings, so N(pi)
    would be at least 4.  Only the boundary terms reach pi, and with
    gap(nu) = c_{E_k E_k}(nu) - lambda c_{E_2k}(nu), lambda =
    c_0(E_k)^2 / c_0(E_2k), sigma_{k-1}((pi)) = 1 + 2^(k-1) and
    sigma_{2k-1}((pi)) = 1 + 2^(2k-1) they cancel in
    gap(pi) - (1 + 2^(k-1)) gap(1) = -lambda (2^(2k-1) - 2^(k-1)),
    which leaves this factor.
    """
    return 2 ** (2 * k - 1) - 2 ** (k - 1)


def exact_identity_scan(d_limit: int, k_limit: int) -> list[tuple[int, int, int]]:
    """All (D, k1, k2) with a vanishing exact constant-term residual.

    Scans every narrow class number one field with discriminant at most
    d_limit, including 5, and every even pair 2 <= k2 <= k1 <= k_limit.
    An unequal pair is tested on the three-value residual (A + B) C - A B,
    A, B, C the zeta values at 1 - k1, 1 - k2, 1 - k1 - k2; an equal pair
    uses the splitting of 2: the inert residual (``residual_inert``), or
    the split/ramified factor ``residual_noninert(k)``, which depends on
    the weight alone and so is decided once per weight, before the fields.

    Nonvanishing is proven modulo the prime P = ``ZETA_MODULUS``: each
    residual is first evaluated on the residues of ``zeta_residues``, as
    ((A + B) C - A B) mod P or (m A^2 - 4 C) mod P, and a nonzero residue
    proves a nonzero rational.  Vanishing is decided exactly: only a pair
    whose residue vanishes is tested again, by the same residual
    (``_unequal_residual``, ``_inert_residual``) on the exact values of
    ``dedekind_zeta_neg``.  So membership in the result is a theorem, not
    an approximation.  The residues are the images of the exact values
    only when P exceeds every prime of their denominators, which are at
    most max(D, k + 1) for the weights k <= 2 k_limit read here: limits with
    max(d_limit, 4 k_limit) >= P raise ``ValueError`` before any table
    is built.  A limit below the smallest field (D = 5) or weight (k = 2)
    is rejected, not scanned as an empty range.
    """
    if d_limit < 5:
        raise ValueError("the discriminant limit must be at least 5")
    if k_limit < 2:
        raise ValueError("the weight limit must be at least 2")
    P = ZETA_MODULUS
    if max(d_limit, 4 * k_limit) >= P:
        raise ValueError(
            f"the discriminant limit and 4 times the weight limit must stay below {P}"
        )
    survivors = []
    kmax = k_limit - k_limit % 2
    noninert_zero = {k for k in range(2, kmax + 1, 2) if residual_noninert(k) == 0}
    fields = narrow_one_fields(d_limit)
    # every field's zeta residues through its heaviest weight, in one pass
    # of the shared-table kernel mod P
    heaviest = {
        f.discriminant: 2 * kmax - 2 + 2 * (f.two_splitting is Splitting.INERT)
        for f in fields
    }
    residues = zeta_residues(heaviest)
    for f in fields:
        D = f.discriminant
        inert = f.two_splitting is Splitting.INERT
        # zeta_F(1 - 2h) mod P at half-weight h >= 1 is z[h]
        z = (0, *residues[D])
        for h1 in range(kmax // 2, 0, -1):
            k1, a = 2 * h1, z[h1]
            for h2 in range(h1 - 1, 0, -1):
                b = z[h2]
                # _unequal_residual on the residues, written out: a call per
                # pair would cost a quarter of a warm scan
                if ((a + b) * z[h1 + h2] - a * b) % P == 0:
                    k2 = 2 * h2
                    A, B, C = (dedekind_zeta_neg(D, k) for k in (k1, k2, k1 + k2))
                    if _unequal_residual(A, B, C) == 0:
                        survivors.append((D, k1, k2))
            if inert:
                equal_vanishes = _inert_vanishes(D, k1, a, z[k1])
            else:
                equal_vanishes = k1 in noninert_zero
            if equal_vanishes:
                survivors.append((D, k1, k1))
    return sorted(survivors)

"""Oracles that the tests hold the package to.

No command runs these.  The coefficient tables, the residual scan and the
narrow-one predicate answer the paper's questions in bulk; the oracles
below answer them one element, one ideal or one field at a time, by a
different route, and the report reference builds a report's document
without the writer's formatting code, so the tests can compare the two:

- ``power_sums_reference``, the centered power sums of a character over
  its whole period through ``kronecker``, against the shared-table
  kernel's half-period rows;
- ``fundamental_unit_norm``, the continued-fraction unit norm, against
  ``narrow_class_number`` beyond the reach of a Pell search;
- ``TotallyPositiveElement`` and ``enumerate_totally_nonneg``, the
  totally nonnegative elements as records, against the tables' rows;
- ``ideal_from_prime_powers`` and ``ideals_of_norm``, the integral ideals
  of a norm, against divisor character sums and ``factor_ideal``;
- ``coefficient``, one Eisenstein coefficient at one element, against
  the coefficient tables;
- ``residual_unequal``, the unequal-weight residual in ``Fraction``
  arithmetic, against the scan's cross-multiplied comparison and the
  product coefficients;
- ``report_reference``, a report as the dict its JSON text encodes, its
  decimals from ``Fraction`` floor and ceiling, against the report
  writer's record f-strings and integer-pair decimals.

Four reads only the tests make live here too, not as methods in the
package: ``power_sum``, one entry of a character's power-sum row;
``ideal_norm``, the norm of a factored ideal; ``contains`` and
``subset_of``, an enclosure against a rational and against an interval.

Every top-level definition here is imported by some test module
(``tests/test_package.py`` checks it).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from eigenprod import hmf_coeffs
from eigenprod.exact import (
    KroneckerCharacter,
    _factorize,
    _is_prime,
    _require_real_fundamental,
    is_fundamental_discriminant,
    kronecker,
)
from eigenprod.hmf_coeffs import (
    EisensteinDescriptor,
    IdealFactorization,
    PrimeClass,
    _canonical_order,
    _omega_params,
    _trace_rows,
    eisenstein_coeff,
    element_norm,
    factor_ideal,
)
from eigenprod.interval import CertifiedReal, Outcome, rational_pair
from eigenprod.quadfield import radicand
from eigenprod.report import (
    ENCLOSURE_DIGITS,
    SURVIVOR,
    VERDICT_FAILED,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_IDENTITY,
    VerificationReport,
    pair_decimal,
)

# ---------------------------------------------------------------------------
# Characters


def power_sums_reference(delta: int, i: int) -> tuple[int, ...]:
    """T_0, T_1, ..., T_i with T_j = sum_{a=1}^{f} chi(a) (2a - f)^j, f =
    |delta|: every index, the parity zeros included, summed over the whole
    period of the Kronecker symbol (delta / a)."""
    f = abs(delta)
    terms = [(c, 2 * a - f) for a in range(1, f + 1) if (c := kronecker(delta, a))]
    return tuple(sum(c * t**j for c, t in terms) for j in range(i + 1))


def power_sum(chi: KroneckerCharacter, i: int) -> int:
    """T_i read from the character's half-period row: zero, with no row
    built, unless (-1)^i = chi(-1)."""
    if i % 2 != chi.is_odd():
        return 0
    return chi.power_sums(i)[i // 2]


# ---------------------------------------------------------------------------
# Enclosures


def contains(x: CertifiedReal, value) -> bool:
    """Whether ``x`` holds ``value``; a float raises ``TypeError``, as at
    every entry to the certified layer."""
    return x.lo <= Fraction(*rational_pair(value)) <= x.hi


def subset_of(x: CertifiedReal, lo, hi) -> bool:
    """Whether ``x`` lies inside ``[lo, hi]``."""
    return Fraction(*rational_pair(lo)) <= x.lo and x.hi <= Fraction(*rational_pair(hi))


# ---------------------------------------------------------------------------
# Fields


def _to_discriminant(n: int) -> int:
    # accept either a fundamental discriminant or a squarefree radicand
    if n > 1 and is_fundamental_discriminant(n):
        return n
    if n > 1 and n % 4 in (2, 3) and is_fundamental_discriminant(4 * n):
        return 4 * n
    raise ValueError(f"{n} determines no real quadratic field")


def fundamental_unit_norm(n: int) -> int:
    """Norm (+1 or -1) of the fundamental unit; -1 iff the continued
    fraction of the standard generator has odd period.

    Accepts a fundamental discriminant or a squarefree radicand.
    """
    D = _to_discriminant(n)
    d = radicand(D)
    s = math.isqrt(d)

    def step(P: int, Q: int) -> tuple[int, int]:
        a = (P + s) // Q
        P2 = a * Q - P
        return P2, (d - P2 * P2) // Q

    state = (1, 2) if d % 4 == 1 else (0, 1)
    first = step(*state)
    cur = first
    period = 0
    while True:
        cur = step(*cur)
        period += 1
        if cur == first:
            break
    return -1 if period % 2 == 1 else 1


# ---------------------------------------------------------------------------
# Elements


def element_trace(D: int, x: int, y: int) -> int:
    t, _ = _omega_params(D)
    return 2 * x + t * y


def is_totally_nonnegative(D: int, x: int, y: int) -> bool:
    # both embeddings (trace +- y sqrt(D)) / 2 nonnegative
    return element_trace(D, x, y) >= 0 and element_norm(D, x, y) >= 0


class _ElementFields(NamedTuple):
    discriminant: int
    x: int
    y: int


class TotallyPositiveElement(_ElementFields):
    """x + y*omega, constrained to be totally positive or zero."""

    __slots__ = ()

    def __new__(cls, discriminant: int, x: int, y: int):
        if not is_totally_nonnegative(discriminant, x, y):
            raise ValueError(
                f"({x}, {y}) is not totally nonnegative for D={discriminant}"
            )
        return tuple.__new__(cls, (discriminant, x, y))

    def trace(self) -> int:
        return element_trace(self.discriminant, self.x, self.y)

    def norm(self) -> int:
        return element_norm(self.discriminant, self.x, self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


def enumerate_totally_nonneg(D: int, trace_bound: int) -> list[TotallyPositiveElement]:
    """Nonzero totally nonnegative integers of trace <= trace_bound, by trace."""
    _require_real_fundamental(D)
    t, _ = _omega_params(D)
    rows = _trace_rows(D, trace_bound)
    return [
        TotallyPositiveElement(D, (s - t * y) // 2, y)
        for s in range(1, trace_bound + 1)
        for y in rows[s]
    ]


# ---------------------------------------------------------------------------
# Ideals


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
    return IdealFactorization(tuple(sorted(checked, key=_canonical_order)))


def ideal_norm(ideal: IdealFactorization) -> int:
    """The absolute norm: the product of the prime norms to their exponents."""
    return math.prod(prime_norm**e for prime_norm, _, e in ideal.entries)


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
# Coefficients and residuals


def coefficient(form: EisensteinDescriptor, nu: TotallyPositiveElement) -> Fraction:
    if nu.discriminant != form.discriminant:
        raise ValueError("element and form live over different fields")
    if nu.is_zero():
        return form.constant_term
    return Fraction(eisenstein_coeff(form, factor_ideal(form.discriminant, nu.x, nu.y)))


def residual_unequal(D: int, k1: int, k2: int) -> Fraction:
    """Exact constant-term residual (A + B) C - A B of the unequal-weight
    identity, with A, B, C the zeta values at 1-k1, 1-k2, 1-k1-k2, in
    ``Fraction`` arithmetic; the scan decides the same residual by one
    integer cross-multiplied comparison instead.  C is asked for first,
    so a missing power-sum row is built once, through T_{k1+k2}.  The
    zeta values are read through ``hmf_coeffs`` at each call, so a test
    that patches ``hmf_coeffs.dedekind_zeta_neg`` moves this residual and
    the scan together."""
    zeta = hmf_coeffs.dedekind_zeta_neg
    c = zeta(D, k1 + k2)
    a, b = zeta(D, k1), zeta(D, k2)
    return (a + b) * c - a * b


# ---------------------------------------------------------------------------
# Reports


def format_decimal(value, digits: int = ENCLOSURE_DIGITS, rounding: str = "floor") -> str:
    """Exact decimal rendering of a rational, directed at `digits` places,
    through ``pair_decimal`` on its reduced pair.  Only an ``int`` or a
    ``Fraction`` is taken; a float raises ``TypeError``."""
    num, den = rational_pair(value)
    return pair_decimal(num, den, digits, rounding)


def _directed_decimal(value: Fraction, rounding, digits: int = ENCLOSURE_DIGITS) -> str:
    # `rounding` is math.floor or math.ceil, applied to the Fraction itself
    scale = 10**digits
    units = rounding(value * scale)
    whole, frac = divmod(abs(units), scale)
    return f"{'-' if units < 0 else ''}{whole}.{frac:0{digits}d}"


def report_reference(report: VerificationReport) -> dict:
    """The dict a report's JSON text encodes: ``json.dumps`` of it with
    ``sort_keys=True, indent=2`` and a newline is ``report.to_json()``.
    Enclosure endpoints are rounded outward by ``Fraction`` floor and
    ceiling and thresholds written by ``str(Fraction)``, and the verdict
    and inconclusive count are worked out from the records written here,
    so nothing here shares formatting or verdict code with the report."""
    constants = []
    for rec in report.constants:
        enclosure = rec.decision.enclosure
        constants.append(
            {
                "name": rec.name,
                "relation": rec.relation,
                "threshold": str(Fraction(rec.threshold)),
                "outcome": rec.decision.outcome.value,
                "precision": rec.decision.precision_used,
                "enclosure": {
                    "lo": _directed_decimal(enclosure.lo, math.floor),
                    "hi": _directed_decimal(enclosure.hi, math.ceil),
                    "precision": enclosure.precision,
                },
                "note": rec.decision.note,
            }
        )
    candidates = [
        {
            "D": rec.d,
            "k1": rec.k1,
            "k2": rec.k2,
            "label": rec.label,
            "status": rec.status,
            "detail": rec.detail,
        }
        for rec in report.candidates
    ]
    outcomes = {c["outcome"] for c in constants}
    if Outcome.INCONCLUSIVE.value in outcomes:
        verdict = VERDICT_INCONCLUSIVE
    elif Outcome.CERTIFIED_FALSE.value in outcomes or any(
        c["status"] == SURVIVOR for c in candidates
    ):
        verdict = VERDICT_FAILED
    else:
        verdict = VERDICT_NO_IDENTITY
    return {
        "section": report.section,
        "verdict": verdict,
        "candidates": candidates,
        "tables": dict(report.tables),
        "constants": constants,
        "fixtures": list(report.fixtures_used),
        "interpretations": list(report.interpretations),
        "inconclusive": sum(
            1 for c in constants if c["outcome"] == Outcome.INCONCLUSIVE.value
        ),
    }

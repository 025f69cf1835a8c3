"""Certified interval arithmetic over exact rational endpoints.

The decision layer never trusts a floating-point value: every real
quantity is represented by a ``CertifiedReal``, an interval with
``Fraction`` endpoints that provably contains the mathematical value.
Rational operations (+, -, *, /, integer powers) are exact while every
endpoint numerator and denominator fits in ``precision + GUARD_BITS``
bits; above that size cap each endpoint is rounded outward (``lo`` down,
``hi`` up) to that many significant bits, so endpoints stay small at
every precision.  The transcendental constructors (pi, zeta(s) at even
s, exp, log, sqrt) compute with integer fixed-point arithmetic (zeta
through Euler's closed form), account for every truncation and division
loss explicitly, and round outward, so the containment invariant

    lo <= true value <= hi

holds unconditionally.  Comparisons against rational thresholds are
three-valued (``CertifiedTrue`` / ``CertifiedFalse`` / ``Inconclusive``)
and a comparison is only ever decided when the whole interval lies on
one side of the threshold.

Interior expression nodes (``Add`` ... ``Abs``) are enclosed through one
bounded memo keyed by ``(node, precision)``.  Nodes are frozen
dataclasses, so the key is the tree's structure: the same subexpression
built twice, such as 4 pi^2 in every unequal-weight chain, is enclosed
once per precision.  An enclosure is a function of that key alone, so the
memo cannot change a result.  It is bounded because a run builds thousands
of distinct nodes and an unbounded memo would keep every one alive.

``evaluate_with_escalation`` retries an undecided comparison at doubled
precision up to a ceiling.  Doubling the precision shrinks enclosure
widths (summation lengths grow; tail bounds, rounding grids and the size
cap tighten), so escalation can sharpen every decision; since every
enclosure contains the true value, it can never flip one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

from .exact import bernoulli

RationalLike = Union[int, Fraction]

# Extra significant bits kept above the working precision when interval
# arithmetic rounds an oversized endpoint outward.
GUARD_BITS = 32


class Outcome(Enum):
    CERTIFIED_TRUE = "CertifiedTrue"
    CERTIFIED_FALSE = "CertifiedFalse"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CertifiedReal:
    """Interval [lo, hi] guaranteed to contain the represented value.

    ``precision`` records the working precision (in bits) the enclosure
    was built at; it is bookkeeping for reports, soundness comes from the
    endpoints alone.
    """

    lo: Fraction
    hi: Fraction
    precision: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    # -- queries ---------------------------------------------------------

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: RationalLike) -> bool:
        return self.lo <= x <= self.hi

    def subset_of(self, lo: RationalLike, hi: RationalLike) -> bool:
        return lo <= self.lo and self.hi <= hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CertifiedReal({float(self.lo):.12g}, {float(self.hi):.12g}, p={self.precision})"

    # -- rational operations, rounded outward above the size cap ---------

    def _prec_with(self, other: "CertifiedReal") -> int:
        return min(self.precision, other.precision)

    def __add__(self, other: "CertifiedReal") -> "CertifiedReal":
        return _capped(self.lo + other.lo, self.hi + other.hi, self._prec_with(other))

    def __sub__(self, other: "CertifiedReal") -> "CertifiedReal":
        return _capped(self.lo - other.hi, self.hi - other.lo, self._prec_with(other))

    def __neg__(self) -> "CertifiedReal":
        return CertifiedReal(-self.hi, -self.lo, self.precision)

    def __mul__(self, other: "CertifiedReal") -> "CertifiedReal":
        if self.lo >= 0 and other.lo >= 0:
            # the common case: both factors nonnegative
            return _capped(self.lo * other.lo, self.hi * other.hi, self._prec_with(other))
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return _capped(min(products), max(products), self._prec_with(other))

    def reciprocal(self) -> "CertifiedReal":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return _capped(1 / self.hi, 1 / self.lo, self.precision)

    def __truediv__(self, other: "CertifiedReal") -> "CertifiedReal":
        return self * other.reciprocal()

    def pow_int(self, n: int) -> "CertifiedReal":
        if n < 0:
            return self.pow_int(-n).reciprocal()
        if n == 0:
            return CertifiedReal(Fraction(1), Fraction(1), self.precision)
        if self.lo >= 0 or n % 2 == 1:
            # x^n is nondecreasing on the interval
            return _capped(self.lo**n, self.hi**n, self.precision)
        if self.hi <= 0:
            return _capped(self.hi**n, self.lo**n, self.precision)
        # even power of an interval straddling zero
        return _capped(Fraction(0), max(self.lo**n, self.hi**n), self.precision)

    def abs(self) -> "CertifiedReal":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return CertifiedReal(Fraction(0), max(-self.lo, self.hi), self.precision)


def _round_outward(x: Fraction, bits: int, up: bool) -> Fraction:
    """x itself if its numerator and denominator fit in ``bits`` bits, else
    x rounded down (or up) to a dyadic with at most ``bits + 1``
    significant bits."""
    num, den = x.numerator, x.denominator
    if num.bit_length() <= bits and den.bit_length() <= bits:
        return x
    if up:
        num = -num
    # |x| lies in [2^(e-1), 2^(e+1)) for e = len(num) - len(den)
    shift = bits - num.bit_length() + den.bit_length()
    if shift >= 0:
        rounded = Fraction((num << shift) // den, 1 << shift)
    else:
        rounded = Fraction((num // (den << -shift)) << -shift)
    return -rounded if up else rounded


def _capped(lo: Fraction, hi: Fraction, precision: int) -> CertifiedReal:
    bits = precision + GUARD_BITS
    return CertifiedReal(
        _round_outward(lo, bits, up=False), _round_outward(hi, bits, up=True), precision
    )


def from_rational(x: RationalLike, precision: int) -> CertifiedReal:
    x = Fraction(x)
    return CertifiedReal(x, x, precision)


# ---------------------------------------------------------------------------
# Fixed-point transcendental constructors
#
# Scaled-integer convention: an integer S at scale q represents S / 2^q.
# Floor divisions lose less than one unit each; the constructors count
# those losses and widen the upper endpoint accordingly.


def _atan_recip_scaled(x: int, q: int) -> tuple[int, int]:
    # atan(1/x) = sum_{j>=0} (-1)^j / ((2j+1) x^(2j+1)), alternating with
    # decreasing terms, so truncation error < first omitted term < 1 unit.
    total = 0
    power = x
    j = 0
    while True:
        term = (1 << q) // ((2 * j + 1) * power)
        if term == 0:
            break
        total += -term if j % 2 else term
        power *= x * x
        j += 1
    # j floor losses + 1 truncation unit, rounded up
    return total, j + 2


@lru_cache(maxsize=None)
def enclose_pi(precision: int) -> CertifiedReal:
    """pi with width at most 2^(2 - precision) (Machin's formula)."""
    q = precision + 16
    a5, e5 = _atan_recip_scaled(5, q)
    a239, e239 = _atan_recip_scaled(239, q)
    center = 16 * a5 - 4 * a239
    err = 16 * e5 + 4 * e239
    scale = 1 << q
    return CertifiedReal(Fraction(center - err, scale), Fraction(center + err, scale), precision)


@lru_cache(maxsize=None)
def enclose_zeta(s: int, precision: int) -> CertifiedReal:
    """zeta(s) for even s >= 2, the only values the verifier needs.

    Euler's formula zeta(s) = |B_s| (2 pi)^s / (2 s!), rounded outward
    onto the grid 2^-(precision + 8), for a width below
    2^-(precision + 6).
    """
    if s < 2 or s % 2:
        raise ValueError("s must be an integer >= 2 and even")
    q = precision + 8
    # raising pi to the s-th power multiplies its relative width by about s
    pi_bits = q + s.bit_length() + 8
    coeff = abs(bernoulli(s)) / (2 * math.factorial(s))
    value = (from_rational(2, pi_bits) * enclose_pi(pi_bits)).pow_int(s)
    value = value * from_rational(coeff, pi_bits)
    scale = 1 << q
    lo = Fraction((value.lo.numerator * scale) // value.lo.denominator, scale)
    hi = Fraction(-((-value.hi.numerator * scale) // value.hi.denominator), scale)
    return CertifiedReal(lo, hi, precision)


def gamma_integer(k: int) -> Fraction:
    """Gamma(k) = (k-1)! exactly, for integer k >= 1."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return Fraction(math.factorial(k - 1))


def _enclose_increasing(
    bounds: Callable[[Fraction, int], tuple[Fraction, Fraction]], x: CertifiedReal
) -> CertifiedReal:
    # f increasing: f(x) lies between the lower bound of f(lo) and the
    # upper bound of f(hi)
    lo, _ = bounds(x.lo, x.precision)
    _, hi = bounds(x.hi, x.precision)
    return CertifiedReal(lo, hi, x.precision)


def _sqrt_fraction(x: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    if x < 0:
        raise ValueError("square root of a negative value")
    if x == 0:
        return Fraction(0), Fraction(0)
    q = precision + 32
    # isqrt(num * den * 4^q) / (den * 2^q) <= sqrt(num/den) < (isqrt + 1)/...
    num, den = x.numerator, x.denominator
    r = math.isqrt(num * den << (2 * q))
    scale = den << q
    return Fraction(r, scale), Fraction(r + 1, scale)


def enclose_sqrt(x: CertifiedReal) -> CertifiedReal:
    return _enclose_increasing(_sqrt_fraction, x)


def _exp_fraction(x: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    # exp(x) via argument halving + Taylor: r = x / 2^k with |r| <= 1/2,
    # exp(x) = exp(r)^(2^k).  Negative x goes through 1/exp(-x).
    if x < 0:
        lo, hi = _exp_fraction(-x, precision)
        return 1 / hi, 1 / lo
    k = max(0, x.numerator.bit_length() - x.denominator.bit_length() + 2) if x else 0
    q = precision + 48 + k
    scale = 1 << q
    r = x / (1 << k)
    # Taylor terms t_j = r^j / j! as scaled integers, floor per step
    term = scale
    total = scale
    j = 0
    while term > 0:
        j += 1
        term = term * r.numerator // (r.denominator * j)
        total += term
    # each of j steps lost < 1 unit; tail < 2 * (first zero term bound)
    # <= 2 * (j + 1) units since the true term was below (loss + 1) units
    slack = 3 * j + 4
    lo_i, hi_i = total, total + slack
    for _ in range(k):
        lo_i = (lo_i * lo_i) >> q
        hi_i = ((hi_i * hi_i) >> q) + 1
    return Fraction(lo_i, scale), Fraction(hi_i + 1, scale)


def enclose_exp(x: CertifiedReal) -> CertifiedReal:
    return _enclose_increasing(_exp_fraction, x)


@lru_cache(maxsize=None)
def _log2_enclosure(precision: int) -> tuple[Fraction, Fraction]:
    return _atanh_based_log(Fraction(2), precision)


def _atanh_based_log(y: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    # for y in [1, 2]: log y = 2 atanh(u), u = (y-1)/(y+1) in [0, 1/3]
    u = (y - 1) / (y + 1)
    if u == 0:
        return Fraction(0), Fraction(0)
    q = precision + 48
    scale = 1 << q
    num, den = u.numerator, u.denominator
    num2, den2 = num * num, den * den
    term = scale * num // den
    total = 0
    j = 0
    while term > 0:
        total += term // (2 * j + 1)
        term = term * num2 // den2
        j += 1
    # u^(2j+1) tail: sum < u^(2J+3)/((2J+3)(1 - u^2)) < 2 units at stop;
    # floor losses < 2j units
    lo = Fraction(2 * total, scale)
    hi = Fraction(2 * (total + 2 * j + 4), scale)
    return lo, hi


def _log_fraction(x: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    if x <= 0:
        raise ValueError("logarithm of a nonpositive value")
    # normalize x = 2^m * y with y in [1, 2)
    m = x.numerator.bit_length() - x.denominator.bit_length()
    y = x / Fraction(2) ** m
    if y < 1:
        m -= 1
        y = 2 * y
    ylo, yhi = _atanh_based_log(y, precision)
    if m == 0:
        return ylo, yhi
    l2lo, l2hi = _log2_enclosure(precision)
    if m > 0:
        return ylo + m * l2lo, yhi + m * l2hi
    return ylo + m * l2hi, yhi + m * l2lo


def enclose_log(x: CertifiedReal) -> CertifiedReal:
    return _enclose_increasing(_log_fraction, x)


# ---------------------------------------------------------------------------
# Expression trees


class Expr:
    """Closed real expression; ``enclose(precision)`` yields a CertifiedReal."""

    def enclose(self, precision: int) -> CertifiedReal:
        raise NotImplementedError

    # operator sugar keeps verification code close to the formulas
    def __add__(self, other: "Expr") -> "Expr":
        return Add(self, _coerce(other))

    def __radd__(self, other) -> "Expr":
        return Add(_coerce(other), self)

    def __sub__(self, other) -> "Expr":
        return Sub(self, _coerce(other))

    def __rsub__(self, other) -> "Expr":
        return Sub(_coerce(other), self)

    def __mul__(self, other) -> "Expr":
        return Mul(self, _coerce(other))

    def __rmul__(self, other) -> "Expr":
        return Mul(_coerce(other), self)

    def __truediv__(self, other) -> "Expr":
        return Div(self, _coerce(other))

    def __rtruediv__(self, other) -> "Expr":
        return Div(_coerce(other), self)

    def __pow__(self, n: int) -> "Expr":
        return Pow(self, n)

    def __neg__(self) -> "Expr":
        return Sub(Rat(0), self)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    raise TypeError(f"cannot use {type(x).__name__} in an expression")


@dataclass(frozen=True)
class Rat(Expr):
    value: Fraction

    def __init__(self, value: RationalLike):
        object.__setattr__(self, "value", Fraction(value))

    def enclose(self, precision: int) -> CertifiedReal:
        return CertifiedReal(self.value, self.value, precision)


@dataclass(frozen=True)
class Pi(Expr):
    def enclose(self, precision: int) -> CertifiedReal:
        return enclose_pi(precision)


PI = Pi()


@dataclass(frozen=True)
class Zeta(Expr):
    s: int

    def enclose(self, precision: int) -> CertifiedReal:
        return enclose_zeta(self.s, precision)


@dataclass(frozen=True)
class GammaInt(Expr):
    k: int

    def enclose(self, precision: int) -> CertifiedReal:
        return from_rational(gamma_integer(self.k), precision)


# Bound on the structural memo below.  In a cold `verify all` at the
# defaults, 2342 of the 5815 interior-node enclosures repeat an earlier
# (node, precision) pair.  Kept unbounded, the memo holds 3473 entries and
# raises peak RSS from 22.6 to 24.9 MB; 256 entries keep 2223 of the 2342
# hits for +0.2 MB, while 512 add 57 hits for +0.35 MB and 64 lose 113.
_ENCLOSE_MEMO_SIZE = 256


@lru_cache(maxsize=_ENCLOSE_MEMO_SIZE)
def _enclose_memo(node: "_Node", precision: int) -> CertifiedReal:
    return node._enclose(precision)


class _Node(Expr):
    """Interior node; subclasses define ``_enclose``, which the memo calls."""

    def enclose(self, precision: int) -> CertifiedReal:
        return _enclose_memo(self, precision)


@dataclass(frozen=True)
class Add(_Node):
    a: Expr
    b: Expr

    def _enclose(self, precision: int) -> CertifiedReal:
        return self.a.enclose(precision) + self.b.enclose(precision)


@dataclass(frozen=True)
class Sub(_Node):
    a: Expr
    b: Expr

    def _enclose(self, precision: int) -> CertifiedReal:
        return self.a.enclose(precision) - self.b.enclose(precision)


@dataclass(frozen=True)
class Mul(_Node):
    a: Expr
    b: Expr

    def _enclose(self, precision: int) -> CertifiedReal:
        return self.a.enclose(precision) * self.b.enclose(precision)


@dataclass(frozen=True)
class Div(_Node):
    a: Expr
    b: Expr

    def _enclose(self, precision: int) -> CertifiedReal:
        return self.a.enclose(precision) / self.b.enclose(precision)


@dataclass(frozen=True)
class Pow(_Node):
    base: Expr
    exponent: int

    def _enclose(self, precision: int) -> CertifiedReal:
        return self.base.enclose(precision).pow_int(self.exponent)


@dataclass(frozen=True)
class Sqrt(_Node):
    x: Expr

    def _enclose(self, precision: int) -> CertifiedReal:
        return enclose_sqrt(self.x.enclose(precision))


@dataclass(frozen=True)
class Exp(_Node):
    x: Expr

    def _enclose(self, precision: int) -> CertifiedReal:
        return enclose_exp(self.x.enclose(precision))


@dataclass(frozen=True)
class Log(_Node):
    x: Expr

    def _enclose(self, precision: int) -> CertifiedReal:
        return enclose_log(self.x.enclose(precision))


@dataclass(frozen=True)
class Abs(_Node):
    x: Expr

    def _enclose(self, precision: int) -> CertifiedReal:
        return self.x.enclose(precision).abs()


# ---------------------------------------------------------------------------
# Decisions


RELATIONS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
}


@dataclass(frozen=True)
class Decision:
    outcome: Outcome
    enclosure: CertifiedReal
    note: str = ""

    @property
    def precision_used(self) -> int:
        return self.enclosure.precision

    @property
    def decided(self) -> bool:
        return self.outcome is not Outcome.INCONCLUSIVE


def certified_compare(
    x: CertifiedReal, threshold: RationalLike, relation: str
) -> Decision:
    """Three-valued comparison of an enclosure against an exact threshold.

    Decided only by set containment, through two endpoints.  The worst
    endpoint for the relation (``lo`` for '>' and '>=', ``hi`` for '<'
    and '<=') gives CertifiedTrue when the relation holds there, so it
    holds on the whole interval; the best endpoint (the other one) gives
    CertifiedFalse when the relation fails there, so it fails everywhere.
    '=' is never certified true, not even from a zero-width interval: it
    is CertifiedFalse exactly when the threshold lies outside the interval.
    """
    t = Fraction(threshold)
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if relation == "=":
        inside = x.lo <= t <= x.hi
        out = Outcome.INCONCLUSIVE if inside else Outcome.CERTIFIED_FALSE
    else:
        holds = RELATIONS[relation]
        worst, best = (x.lo, x.hi) if relation in (">", ">=") else (x.hi, x.lo)
        if holds(worst, t):
            out = Outcome.CERTIFIED_TRUE
        elif not holds(best, t):
            out = Outcome.CERTIFIED_FALSE
        else:
            out = Outcome.INCONCLUSIVE
    return Decision(out, x)


def evaluate_with_escalation(
    expr: Expr,
    threshold: RationalLike,
    relation: str,
    base_precision: int = 128,
    precision_ceiling: int = 1024,
) -> Decision:
    """Decide ``expr <relation> threshold``, doubling precision as needed.

    Precisions base, 2*base, ... up to the ceiling.  An Inconclusive
    result at the ceiling is returned as such with the final enclosure
    attached for diagnostics; callers treat it as a verification failure,
    never as a soft pass.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if base_precision < 8:
        raise ValueError("base precision unreasonably small")
    p = base_precision
    while True:
        enc = expr.enclose(p)
        decision = certified_compare(enc, threshold, relation)
        if decision.decided:
            return decision
        if p >= precision_ceiling:
            w = enc.width()
            note = (
                f"undecided at ceiling {precision_ceiling}: enclosure width "
                f"{float(w):.3e} still brackets the threshold"
            )
            return Decision(Outcome.INCONCLUSIVE, enc, note)
        p = min(2 * p, precision_ceiling)

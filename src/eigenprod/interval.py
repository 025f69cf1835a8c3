"""Certified interval arithmetic over exact rational endpoints.

The decision layer never trusts a floating-point value: every real
quantity is represented by a ``CertifiedReal``, an interval that provably
contains the mathematical value.  Each endpoint is kept as a reduced
integer pair (numerator, denominator > 0), in the style of Arb's ``arf``
numbers, and the kernel works on those integers alone; ``lo`` and ``hi``
read an endpoint back as a ``Fraction``.  Rational operations (+, -, *,
/, integer powers) are exact while every endpoint numerator and
denominator fits in ``precision + GUARD_BITS`` bits; above that size cap
each endpoint is rounded outward (``lo`` down, ``hi`` up) to a dyadic with
that many significant bits, so endpoints stay small at every precision.
A power of a dyadic endpoint is rounded from its top bits under a
rounding test and falls back to the exact power, so every endpoint is
what the exact power rounds to.
The transcendental constructors (pi, zeta(s) at even s, exp, log, sqrt)
compute with integer fixed-point arithmetic (zeta through Euler's closed
form), account for every truncation and division loss explicitly, and
round outward, so the containment invariant

    lo <= true value <= hi

holds unconditionally.  Comparisons against rational thresholds are
three-valued (``CertifiedTrue`` / ``CertifiedFalse`` / ``Inconclusive``),
decided by cross-multiplying against the threshold, and a comparison is
only ever decided when the whole interval lies on one side of it.  Its
result is a ``Decision``, a ``NamedTuple``.

Interior expression nodes (``Add`` ... ``Abs``) keep enclosures for two
lifetimes.  Each node keeps its last enclosure on itself, so the
enclosure lives exactly as long as the node: a tree the verifier's
memoised builders keep is enclosed once per precision for the life of
the process, and a tree built for one probe drops its enclosures with
the tree.  Equal nodes built apart share enclosures through one bounded
memo keyed by ``(node, precision)``.  A node is its kind and its
argument tuple, compared structurally (see ``Expr``), so the key is the
tree's structure: the same subexpression built twice, such as 4 pi^2 in
every unequal-weight chain, is enclosed once per precision while it
stays in the memo.  An enclosure is a function of the node and the
precision alone, so neither store can change a result.  The memo is
bounded because a run builds thousands of distinct nodes and an
unbounded memo would keep every one alive.

``evaluate_with_escalation`` retries an undecided comparison at doubled
precision up to a ceiling.  Doubling the precision shrinks enclosure
widths (summation lengths grow; tail bounds, rounding grids and the size
cap tighten), so escalation can sharpen every decision; since every
enclosure contains the true value, it can never flip one.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Union

from . import DEFAULT_BASE_PRECISION, DEFAULT_PRECISION_CEILING
from .exact import bernoulli

RationalLike = Union[int, Fraction]

# A rational inside the kernel: (numerator, denominator) with the
# denominator positive and the two coprime, so equal values have equal pairs.
Pair = tuple[int, int]

# Extra significant bits kept above the working precision when interval
# arithmetic rounds an oversized endpoint outward.
GUARD_BITS = 32


class Outcome(Enum):
    CERTIFIED_TRUE = "CertifiedTrue"
    CERTIFIED_FALSE = "CertifiedFalse"
    INCONCLUSIVE = "Inconclusive"


def rational_pair(x: RationalLike) -> Pair:
    """``x`` as a ``(numerator, denominator)`` pair.  Only an ``int`` or a
    ``Fraction`` is taken: a float's binary value is not the decimal it was
    written as, so a float raises ``TypeError``."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")
    return x.numerator, x.denominator


def _lt(a: Pair, b: Pair) -> bool:
    return a[0] * b[1] < b[0] * a[1]


def _reduced(num: int, den: int) -> Pair:
    g = math.gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def _dyadic(num: int, q: int) -> Pair:
    """num / 2^q as a reduced pair: only trailing zeros can cancel."""
    if num == 0:
        return 0, 1
    z = min((num & -num).bit_length() - 1, q)
    return num >> z, 1 << (q - z)


def _add(a: Pair, b: Pair) -> Pair:
    # Knuth 4.5.1, as in Fraction: reduce through the gcd of the denominators
    (an, ad), (bn, bd) = a, b
    g = math.gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return t, s * bd
    return t // g2, s * (bd // g2)


def _mul(a: Pair, b: Pair) -> Pair:
    # the two cross gcds leave the product reduced
    (an, ad), (bn, bd) = a, b
    g1 = math.gcd(an, bd)
    if g1 > 1:
        an //= g1
        bd //= g1
    g2 = math.gcd(bn, ad)
    if g2 > 1:
        bn //= g2
        ad //= g2
    return an * bn, ad * bd


class CertifiedReal:
    """Interval [lo, hi] guaranteed to contain the represented value.

    Each endpoint is kept as a reduced integer pair; ``lo`` and ``hi``
    read it back as a ``Fraction``.  ``precision`` records the working
    precision (in bits) the enclosure was built at; it is bookkeeping for
    reports, soundness comes from the endpoints alone.
    """

    __slots__ = ("_lo", "_hi", "_precision")

    def __init__(self, lo: RationalLike, hi: RationalLike, precision: int):
        lo, hi = rational_pair(lo), rational_pair(hi)
        if _lt(hi, lo):
            raise ValueError("empty interval")
        self._lo, self._hi, self._precision = lo, hi, precision

    # -- queries ---------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return Fraction(*self._lo)

    @property
    def hi(self) -> Fraction:
        return Fraction(*self._hi)

    @property
    def precision(self) -> int:
        return self._precision

    def endpoint_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """``(lo, hi)`` as reduced ``(numerator, denominator > 0)`` pairs."""
        return self._lo, self._hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __eq__(self, other) -> bool:
        if type(other) is not CertifiedReal:
            return NotImplemented
        return (self._lo, self._hi, self._precision) == (other._lo, other._hi, other._precision)

    def __hash__(self) -> int:
        return hash((self._lo, self._hi, self._precision))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CertifiedReal({float(self.lo):.12g}, {float(self.hi):.12g}, p={self.precision})"

    # -- rational operations, rounded outward above the size cap ---------

    def __add__(self, other: "CertifiedReal") -> "CertifiedReal":
        precision = min(self._precision, other._precision)
        return _capped(_add(self._lo, other._lo), _add(self._hi, other._hi), precision)

    def __sub__(self, other: "CertifiedReal") -> "CertifiedReal":
        (ln, ld), (hn, hd) = other._lo, other._hi
        precision = min(self._precision, other._precision)
        return _capped(_add(self._lo, (-hn, hd)), _add(self._hi, (-ln, ld)), precision)

    def __neg__(self) -> "CertifiedReal":
        (ln, ld), (hn, hd) = self._lo, self._hi
        return _interval((-hn, hd), (-ln, ld), self._precision)

    def __mul__(self, other: "CertifiedReal") -> "CertifiedReal":
        precision = min(self._precision, other._precision)
        if self._lo[0] >= 0 and other._lo[0] >= 0:
            # the common case: both factors nonnegative
            return _capped(_mul(self._lo, other._lo), _mul(self._hi, other._hi), precision)
        products = [_mul(a, b) for a in (self._lo, self._hi) for b in (other._lo, other._hi)]
        lo = hi = products[0]
        for p in products[1:]:
            if _lt(p, lo):
                lo = p
            if _lt(hi, p):
                hi = p
        return _capped(lo, hi, precision)

    def reciprocal(self) -> "CertifiedReal":
        (ln, ld), (hn, hd) = self._lo, self._hi
        if ln <= 0 <= hn:
            raise ZeroDivisionError("interval straddles zero")
        if hn < 0:
            # denominators stay positive: the sign moves to the numerator
            return _capped((-hd, -hn), (-ld, -ln), self._precision)
        return _capped((hd, hn), (ld, ln), self._precision)

    def __truediv__(self, other: "CertifiedReal") -> "CertifiedReal":
        return self * other.reciprocal()

    def pow_int(self, n: int) -> "CertifiedReal":
        """A power of a dyadic endpoint is rounded from its top bits under a
        rounding test and falls back to the exact power, so every endpoint
        is what the exact power rounds to."""
        if n < 0:
            return self.pow_int(-n).reciprocal()
        precision = self._precision
        if n == 0:
            return _interval((1, 1), (1, 1), precision)
        bits = precision + GUARD_BITS
        lo, hi = self._lo, self._hi
        if lo[0] >= 0 or n % 2 == 1:
            # x^n is nondecreasing on the interval
            lo, hi = _pow_endpoint(lo, n, bits, False), _pow_endpoint(hi, n, bits, True)
        elif hi[0] <= 0:
            lo, hi = _pow_endpoint(hi, n, bits, False), _pow_endpoint(lo, n, bits, True)
        else:
            # even power of an interval straddling zero
            lo, hi = _pow_endpoint(lo, n, bits, True), _pow_endpoint(hi, n, bits, True)
            lo, hi = (0, 1), hi if _lt(lo, hi) else lo
        return _interval(lo, hi, precision)

    def abs(self) -> "CertifiedReal":
        (ln, ld), hi = self._lo, self._hi
        if ln >= 0:
            return self
        if hi[0] <= 0:
            return -self
        neg_lo = (-ln, ld)
        return _interval((0, 1), hi if _lt(neg_lo, hi) else neg_lo, self._precision)


def _interval(lo: Pair, hi: Pair, precision: int) -> CertifiedReal:
    # kernel results hold lo <= hi by construction: no emptiness test
    x = object.__new__(CertifiedReal)
    x._lo, x._hi, x._precision = lo, hi, precision
    return x


def _floor_dyadic(num: int, den: int, bits: int) -> Pair:
    """num/den rounded down to a dyadic of at most bits + 1 significant bits."""
    # |num/den| lies in [2^(e-1), 2^(e+1)) for e = len(num) - len(den)
    shift = bits - num.bit_length() + den.bit_length()
    if shift < 0:
        return (num // (den << -shift)) << -shift, 1
    return _dyadic((num << shift) // den, shift)


def _round_out(num: int, den: int, bits: int, up: bool) -> Pair:
    """num/den rounded down, or up when ``up``, to bits + 1 significant bits."""
    # |num| past its trailing zeros: a dyadic that fits is already rounded
    if den & (den - 1) or num.bit_length() - (num & -num).bit_length() > bits:
        num, den = _floor_dyadic(-num if up else num, den, bits)
        num = -num if up else num
    return num, den


def _capped(lo: Pair, hi: Pair, precision: int) -> CertifiedReal:
    """[lo, hi], with an endpoint whose numerator or denominator exceeds
    ``precision + GUARD_BITS`` bits rounded outward: lo down, hi up."""
    bits = precision + GUARD_BITS
    (ln, ld), (hn, hd) = lo, hi
    if ln.bit_length() > bits or ld.bit_length() > bits:
        lo = _round_out(ln, ld, bits, False)
    if hn.bit_length() > bits or hd.bit_length() > bits:
        hi = _round_out(hn, hd, bits, True)
    return _interval(lo, hi, precision)


def _pow_endpoint(x: Pair, n: int, bits: int, up: bool) -> Pair:
    """x^n rounded down, or up when ``up``, as ``_capped`` rounds it.

    For x = a / 2^q with a odd and positive this is Ziv's rounding test, as
    in MPFR and Arb: a^n is raised on integers cut to ``bits + 64`` bits,
    between a lower and an upper bound with one shared binary exponent.
    When both bounds have the same length and the same top ``bits + 1``
    bits, those bits are the floor m of the rounded power, and since a^n is
    odd its ceiling is m + 1.  Every other case takes the exact power.
    """
    a, d = x
    if a > 0 and a & 1 and not d & (d - 1):
        lo, hi, e = a, a, 0
        for bit in bin(n)[3:]:
            lo, hi, e = lo * lo, hi * hi, 2 * e
            if bit == "1":
                lo, hi = lo * a, hi * a
            cut = hi.bit_length() - bits - 64
            if cut > 0:
                lo, hi, e = lo >> cut, (hi >> cut) + 1, e + cut
        size = lo.bit_length()
        drop = max(size - bits - 1, 0)
        if size == hi.bit_length() and lo >> drop == hi >> drop:
            m = lo >> drop
            if up and drop + e:
                # a^n is odd, so it lies strictly between m and m + 1 units
                m += 1
            shift = (d.bit_length() - 1) * n - drop - e
            return (m << -shift, 1) if shift < 0 else _dyadic(m, shift)
    # coprime numerator and denominator stay coprime under a power
    num, den = a**n, d**n
    if num.bit_length() <= bits and den.bit_length() <= bits:
        return num, den
    return _round_out(num, den, bits, up)


def from_rational(x: RationalLike, precision: int) -> CertifiedReal:
    x = rational_pair(x)
    return _interval(x, x, precision)


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
    return _interval(_dyadic(center - err, q), _dyadic(center + err, q), precision)


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
    b = bernoulli(s)
    coeff = _reduced(abs(b.numerator), 2 * math.factorial(s) * b.denominator)
    value = (from_rational(2, pi_bits) * enclose_pi(pi_bits)).pow_int(s)
    value = value * _interval(coeff, coeff, pi_bits)
    (ln, ld), (hn, hd) = value._lo, value._hi
    return _interval(_dyadic((ln << q) // ld, q), _dyadic(-((-hn << q) // hd), q), precision)


def _enclose_increasing(
    bounds: Callable[[Pair, int], tuple[Pair, Pair]], x: CertifiedReal
) -> CertifiedReal:
    # f increasing: f(x) lies between the lower bound of f(lo) and the
    # upper bound of f(hi)
    lo, _ = bounds(x._lo, x._precision)
    _, hi = bounds(x._hi, x._precision)
    return _interval(lo, hi, x._precision)


def _sqrt_bounds(x: Pair, precision: int) -> tuple[Pair, Pair]:
    num, den = x
    if num < 0:
        raise ValueError("square root of a negative value")
    if num == 0:
        return (0, 1), (0, 1)
    q = precision + 32
    # isqrt(num * den * 4^q) / (den * 2^q) <= sqrt(num/den) < (isqrt + 1)/...
    r = math.isqrt(num * den << (2 * q))
    scale = den << q
    return _reduced(r, scale), _reduced(r + 1, scale)


def enclose_sqrt(x: CertifiedReal) -> CertifiedReal:
    return _enclose_increasing(_sqrt_bounds, x)


def _exp_bounds(x: Pair, precision: int) -> tuple[Pair, Pair]:
    # exp(x) via argument halving + Taylor: r = x / 2^k with |r| <= 1/2,
    # exp(x) = exp(r)^(2^k).  Negative x goes through 1/exp(-x).
    num, den = x
    if num < 0:
        (ln, ld), (hn, hd) = _exp_bounds((-num, den), precision)
        return (hd, hn), (ld, ln)
    k = max(0, num.bit_length() - den.bit_length() + 2) if num else 0
    q = precision + 48 + k
    scale = 1 << q
    # r = num / (den 2^k), left unreduced: only the floors below read it
    r_den = den << k
    # Taylor terms t_j = r^j / j! as scaled integers, floor per step
    term = scale
    total = scale
    j = 0
    while term > 0:
        j += 1
        term = term * num // (r_den * j)
        total += term
    # each of j steps lost < 1 unit; tail < 2 * (first zero term bound)
    # <= 2 * (j + 1) units since the true term was below (loss + 1) units
    slack = 3 * j + 4
    lo_i, hi_i = total, total + slack
    for _ in range(k):
        lo_i = (lo_i * lo_i) >> q
        hi_i = ((hi_i * hi_i) >> q) + 1
    return _dyadic(lo_i, q), _dyadic(hi_i + 1, q)


def enclose_exp(x: CertifiedReal) -> CertifiedReal:
    return _enclose_increasing(_exp_bounds, x)


@lru_cache(maxsize=None)
def _log2_enclosure(precision: int) -> tuple[Pair, Pair]:
    return _atanh_based_log((2, 1), precision)


def _atanh_based_log(y: Pair, precision: int) -> tuple[Pair, Pair]:
    # for y in [1, 2]: log y = 2 atanh(u), u = (y-1)/(y+1) in [0, 1/3],
    # left unreduced: only the floors below read it
    num, den = y[0] - y[1], y[0] + y[1]
    if num == 0:
        return (0, 1), (0, 1)
    q = precision + 48
    num2, den2 = num * num, den * den
    term = (num << q) // den
    total = 0
    j = 0
    while term > 0:
        total += term // (2 * j + 1)
        term = term * num2 // den2
        j += 1
    # u^(2j+1) tail: sum < u^(2J+3)/((2J+3)(1 - u^2)) < 2 units at stop;
    # floor losses < 2j units
    return _dyadic(2 * total, q), _dyadic(2 * (total + 2 * j + 4), q)


def _log_bounds(x: Pair, precision: int) -> tuple[Pair, Pair]:
    num, den = x
    if num <= 0:
        raise ValueError("logarithm of a nonpositive value")
    # normalize x = 2^m * y with y in [1, 2), y left unreduced
    m = num.bit_length() - den.bit_length()
    y = (num, den << m) if m >= 0 else (num << -m, den)
    if y[0] < y[1]:
        m -= 1
        y = (2 * y[0], y[1])
    ylo, yhi = _atanh_based_log(y, precision)
    if m == 0:
        return ylo, yhi
    l2lo, l2hi = _log2_enclosure(precision)
    if m < 0:
        l2lo, l2hi = l2hi, l2lo
    return _add(ylo, _mul((m, 1), l2lo)), _add(yhi, _mul((m, 1), l2hi))


def enclose_log(x: CertifiedReal) -> CertifiedReal:
    return _enclose_increasing(_log_bounds, x)


# ---------------------------------------------------------------------------
# Expression trees


class Expr:
    """Closed real expression; ``enclose(precision)`` yields a CertifiedReal.

    A node is its kind (its class) and its argument tuple ``args``:
    children, or a leaf's value, an ``int`` whenever the value is integral
    (see ``Rat``).  A node's kind and arguments never change, so its
    structural hash is computed once, at construction, from its children's
    kept hashes; the enclosure memo hashes every node it is asked about,
    which would otherwise walk the whole subtree each time.  Equality is
    structural: the same kind with equal arguments.  The kept hash mixes in
    ``hash(type(self))``, which differs from process to process, so a node
    pickles as its kind and arguments and is rebuilt through its constructor
    when loaded.
    """

    __slots__ = ("args", "_hash")

    def __init__(self, *args):
        self.args = args
        self._hash = hash((type(self), args))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.args == self.args

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), self.args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({', '.join(map(repr, self.args))})"

    def enclose(self, precision: int) -> CertifiedReal:
        raise NotImplementedError

    # operator sugar keeps verification code close to the formulas
    def __add__(self, other: "Expr") -> "Expr":
        return Add(self, _coerce(other))

    def __sub__(self, other) -> "Expr":
        return Sub(self, _coerce(other))

    def __mul__(self, other) -> "Expr":
        return Mul(self, _coerce(other))

    def __truediv__(self, other) -> "Expr":
        return Div(self, _coerce(other))

    def __rtruediv__(self, other) -> "Expr":
        return Div(_coerce(other), self)


def _coerce(x) -> Expr:
    return x if isinstance(x, Expr) else Rat(x)


class Rat(Expr):
    """A rational leaf.  An integral value is kept as an ``int``, so
    ``Rat(2)`` and ``Rat(Fraction(4, 2))`` hold the same argument and
    building or comparing an integer leaf touches no ``Fraction``."""

    __slots__ = ()

    def __init__(self, value: RationalLike):
        num, den = rational_pair(value)
        super().__init__(num if den == 1 else value)

    def enclose(self, precision: int) -> CertifiedReal:
        return from_rational(self.args[0], precision)


class Pi(Expr):
    __slots__ = ()

    def enclose(self, precision: int) -> CertifiedReal:
        return enclose_pi(precision)


PI = Pi()


class Zeta(Expr):
    __slots__ = ()

    def enclose(self, precision: int) -> CertifiedReal:
        return enclose_zeta(self.args[0], precision)


# Bound on the structural memo below.  A cold `verify all` at the defaults
# asks 5453 interior-node enclosures: 967 are answered by the node's kept
# enclosure, 1049 by the memo, and 3437 are computed.  Kept unbounded, the
# memo holds 3226 entries and raises peak RSS from 20.0 to 21.5 MB.  512
# entries add 63 hits but time no faster (best of 10 runs in process), and
# 128 and 64 lose 106 and 171 hits.
_ENCLOSE_MEMO_SIZE = 256


@lru_cache(maxsize=_ENCLOSE_MEMO_SIZE)
def _enclose_memo(node: "_Node", precision: int) -> CertifiedReal:
    return node._enclose(precision)


class _Node(Expr):
    """Interior node: its kind's ``op`` applied to the enclosures of its
    children, through the memo.  The node keeps its last enclosure in
    ``_kept``, one attribute that also carries the precision the enclosure
    was built at, so a node asked again at that precision answers without
    a memo lookup.  Keeping the bare enclosure rather than a
    ``(precision, enclosure)`` tuple saves about 70 KiB after a cold
    ``verify all``.  The slot is unset until the first enclosure, and
    ``__reduce__`` does not carry it."""

    __slots__ = ("_kept",)

    def enclose(self, precision: int) -> CertifiedReal:
        kept = getattr(self, "_kept", None)
        if kept is not None and kept._precision == precision:
            return kept
        kept = self._kept = _enclose_memo(self, precision)
        return kept

    def _enclose(self, precision: int) -> CertifiedReal:
        return self.op(*[x.enclose(precision) for x in self.args])


class Add(_Node):
    __slots__ = ()
    op = staticmethod(operator.add)


class Sub(_Node):
    __slots__ = ()
    op = staticmethod(operator.sub)


class Mul(_Node):
    __slots__ = ()
    op = staticmethod(operator.mul)


class Div(_Node):
    __slots__ = ()
    op = staticmethod(operator.truediv)


class Pow(_Node):
    # the exponent is an int, not a child
    __slots__ = ()

    def _enclose(self, precision: int) -> CertifiedReal:
        base, exponent = self.args
        return base.enclose(precision).pow_int(exponent)


class Sqrt(_Node):
    __slots__ = ()
    op = staticmethod(enclose_sqrt)


class Exp(_Node):
    __slots__ = ()
    op = staticmethod(enclose_exp)


class Log(_Node):
    __slots__ = ()
    op = staticmethod(enclose_log)


class Abs(_Node):
    __slots__ = ()
    op = staticmethod(CertifiedReal.abs)


# ---------------------------------------------------------------------------
# Decisions


RELATIONS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
}


class Decision(NamedTuple):
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
    tn, td = rational_pair(threshold)
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    # the sign of (endpoint - threshold): every denominator is positive
    (ln, ld), (hn, hd) = x._lo, x._hi
    lo_side, hi_side = ln * td - tn * ld, hn * td - tn * hd
    if relation == "=":
        inside = lo_side <= 0 <= hi_side
        out = Outcome.INCONCLUSIVE if inside else Outcome.CERTIFIED_FALSE
    else:
        holds = RELATIONS[relation]
        worst, best = (lo_side, hi_side) if relation in (">", ">=") else (hi_side, lo_side)
        if holds(worst, 0):
            out = Outcome.CERTIFIED_TRUE
        elif not holds(best, 0):
            out = Outcome.CERTIFIED_FALSE
        else:
            out = Outcome.INCONCLUSIVE
    return Decision(out, x)


def evaluate_with_escalation(
    expr: Expr,
    threshold: RationalLike,
    relation: str,
    base_precision: int = DEFAULT_BASE_PRECISION,
    precision_ceiling: int = DEFAULT_PRECISION_CEILING,
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

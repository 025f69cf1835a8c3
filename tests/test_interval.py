"""Certified interval arithmetic and the escalation loop.

Transcendental enclosures are checked for containment against mpmath at
300 bits of working precision.  Endpoint conversion to mpf rounds, so
containment is asserted with a guard band of 2^-250, many orders below
any enclosure width produced here.
"""

import dataclasses
import inspect
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from eigenprod import (
    PI,
    Abs,
    CertifiedReal,
    Decision,
    Exp,
    Log,
    Outcome,
    Pow,
    Rat,
    Sqrt,
    Zeta,
    certified_compare,
    enclose_exp,
    enclose_log,
    enclose_pi,
    enclose_sqrt,
    enclose_zeta,
    evaluate_with_escalation,
    verify_section4_inert,
    verify_section5,
)
from eigenprod import interval, verifier
from eigenprod.interval import (
    GUARD_BITS,
    RELATIONS,
    Add,
    Div,
    Mul,
    Pi,
    Sub,
    _capped,
    _enclose_memo,
    _floor_dyadic,
    _Node,
    from_rational,
)
from oracles import contains, subset_of

mp.prec = 300
GUARD = mp.mpf(2) ** -250


def _as_mp(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _contains(enc: CertifiedReal, value) -> bool:
    return _as_mp(enc.lo) - GUARD <= value <= _as_mp(enc.hi) + GUARD


# ---------------------------------------------------------------------------
# CertifiedReal


def test_interval_rejects_inverted_endpoints():
    with pytest.raises(ValueError, match="empty interval"):
        CertifiedReal(Fraction(2), Fraction(1), 32)


def test_interval_queries():
    x = CertifiedReal(Fraction(1, 3), Fraction(1, 2), 64)
    assert x.width() == Fraction(1, 6)
    assert contains(x, Fraction(2, 5))
    assert contains(x, Fraction(1, 3)) and contains(x, Fraction(1, 2))
    assert not contains(x, Fraction(3, 5))
    assert subset_of(x, 0, 1)
    assert not subset_of(x, Fraction(2, 5), 1)


def test_from_rational_is_a_point():
    x = from_rational(Fraction(7, 3), 64)
    assert x.lo == x.hi == Fraction(7, 3)
    assert x.width() == 0


def test_arithmetic_preserves_containment():
    # random point values wrapped in random slack; every operation must
    # keep the exact rational result inside the interval
    rng = random.Random(577)

    def wrap(v: Fraction) -> CertifiedReal:
        a = Fraction(rng.randrange(0, 5), rng.randrange(1, 9) * 101)
        b = Fraction(rng.randrange(0, 5), rng.randrange(1, 9) * 103)
        return CertifiedReal(v - a, v + b, 64)

    for _ in range(400):
        x = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        y = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        X, Y = wrap(x), wrap(y)
        assert contains(X + Y, x + y)
        assert contains(X - Y, x - y)
        assert contains(X * Y, x * y)
        assert contains(-X, -x)
        assert contains(X.abs(), abs(x))
        if not contains(Y, 0):
            assert contains(X / Y, x / y)
            assert contains(Y.reciprocal(), 1 / y)
        n = rng.randrange(0, 5)
        assert contains(X.pow_int(n), x**n)
        if not contains(X, 0):
            m = -rng.randrange(1, 4)
            assert contains(X.pow_int(m), x**m)


# Size-capped outward rounding: the oracle below is plain exact interval
# arithmetic, written out here rather than taken from the package.

_fractions = st.builds(
    Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**90)
)
_intervals = st.lists(_fractions, min_size=2, max_size=2).map(sorted)


def _exact_op(op, x, y, n):
    if op == "add":
        return x[0] + y[0], x[1] + y[1]
    if op == "sub":
        return x[0] - y[1], x[1] - y[0]
    if op == "mul":
        products = [a * b for a in x for b in y]
        return min(products), max(products)
    if op == "reciprocal":
        return 1 / x[1], 1 / x[0]
    if n == 0:
        return Fraction(1), Fraction(1)
    powers = [x[0] ** abs(n), x[1] ** abs(n)]
    lo = 0 if n % 2 == 0 and x[0] < 0 < x[1] else min(powers)
    if n < 0:
        return 1 / max(powers), 1 / lo
    return lo, max(powers)


def _package_op(op, X, Y, n):
    if op == "add":
        return X + Y
    if op == "sub":
        return X - Y
    if op == "mul":
        return X * Y
    if op == "reciprocal":
        return X.reciprocal()
    return X.pow_int(n)


# The Fraction kernel that the integer-pair kernel replaced, kept as the
# bit-for-bit reference for its size-capped outward rounding.


def _reference_round(x: Fraction, bits: int, up: bool) -> Fraction:
    num, den = x.numerator, x.denominator
    if num.bit_length() <= bits and den.bit_length() <= bits:
        return x
    if up:
        num = -num
    shift = bits - num.bit_length() + den.bit_length()
    if shift >= 0:
        rounded = Fraction((num << shift) // den, 1 << shift)
    else:
        rounded = Fraction((num // (den << -shift)) << -shift)
    return -rounded if up else rounded


def _reference_op(op, x, y, n, precision):
    # a negative power is the reciprocal of the positive one, each rounded
    if op == "pow_int" and n < 0:
        x = _reference_op(op, x, y, -n, precision)
        op = "reciprocal"
    lo, hi = _exact_op(op, x, y, n)
    bits = precision + GUARD_BITS
    return _reference_round(lo, bits, up=False), _reference_round(hi, bits, up=True)


def _fits(v: Fraction, bits: int) -> bool:
    return v.numerator.bit_length() <= bits and v.denominator.bit_length() <= bits


@pytest.mark.parametrize("op", ["add", "sub", "mul", "reciprocal", "pow_int"])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    x=_intervals,
    y=_intervals,
    n=st.integers(-4, 6),
    precision=st.sampled_from([8, 24, 40]),
)
def test_rounded_operations(op, x, y, n, precision):
    if op == "reciprocal" or (op == "pow_int" and n < 0):
        assume(x[0] > 0 or x[1] < 0)
    bits = precision + GUARD_BITS
    X = CertifiedReal(x[0], x[1], precision)
    Y = CertifiedReal(y[0], y[1], precision)
    lo, hi = _exact_op(op, x, y, n)
    out = _package_op(op, X, Y, n)
    assert out.precision == precision
    # containment of the exact result, and exactness below the size cap
    assert out.lo <= lo and hi <= out.hi
    if _fits(lo, bits) and _fits(hi, bits):
        assert (out.lo, out.hi) == (lo, hi)
    # an endpoint above the cap is a dyadic m / 2^k with at most bits + 1
    # significant bits; only its binary exponent can make it longer
    for end in (out.lo, out.hi):
        if _fits(end, bits):
            continue
        num, den = abs(end.numerator), end.denominator
        assert den & (den - 1) == 0
        assert num.bit_length() - (num & -num).bit_length() + 1 <= bits + 1
        assert min(num.bit_length(), den.bit_length()) <= bits + 2
    # bit for bit the reference rounding; == compares the kernel's integer
    # pairs, so it also fails on an endpoint left unreduced
    reference = _reference_op(op, x, y, n, precision)
    assert (out.lo, out.hi) == reference
    assert out == CertifiedReal(*reference, precision)


@st.composite
def _reduced_dyadics(draw, bits: int) -> tuple[int, int]:
    # num / 2^q with |num| within a few bits of the size cap and q > 0 only
    # for odd num, so the pair is reduced, as every kernel pair is
    size = draw(st.integers(bits - 2, bits + 3))
    num = draw(st.integers(1 << (size - 1), (1 << size) - 1))
    q = draw(st.integers(0, bits + 8))
    if q:
        num |= 1
    return draw(st.sampled_from([num, -num])), 1 << q


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.integers(0, 40).flatmap(
        lambda p: st.tuples(
            st.just(p),
            _reduced_dyadics(p + GUARD_BITS),
            _reduced_dyadics(p + GUARD_BITS),
        )
    )
)
# at precision 0, numerators of bits + 1 and bits + 2 bits over a
# denominator longer than the cap: the first is its own rounding, the
# second loses its last bit
@example(
    (
        0,
        ((1 << GUARD_BITS) | 1, 1 << (GUARD_BITS + 4)),
        ((1 << (GUARD_BITS + 1)) | 1, 1 << (GUARD_BITS + 4)),
    )
)
def test_capped_rounds_dyadic_endpoints_as_floor_dyadic_does(case):
    # _capped skips _floor_dyadic for a dyadic endpoint whose numerator has
    # at most bits + 1 significant bits; pair for pair, both endpoints must still be
    # what _floor_dyadic gives for every endpoint above the size cap
    precision, lo, hi = case
    bits = precision + GUARD_BITS

    def over(pair):
        return pair[0].bit_length() > bits or pair[1].bit_length() > bits

    expected_lo = _floor_dyadic(*lo, bits) if over(lo) else lo
    expected_hi = hi
    if over(hi):
        num, den = _floor_dyadic(-hi[0], hi[1], bits)
        expected_hi = -num, den
    assert _capped(lo, hi, precision).endpoint_pairs() == (expected_lo, expected_hi)


def test_reciprocal_through_zero_rejected():
    x = CertifiedReal(Fraction(-1), Fraction(1), 32)
    with pytest.raises(ZeroDivisionError):
        x.reciprocal()


def test_pow_int_edge_cases():
    x = CertifiedReal(Fraction(-2), Fraction(3), 32)
    sq = x.pow_int(2)
    assert sq.lo == 0 and sq.hi == 9
    cube = x.pow_int(3)
    assert cube.lo == -8 and cube.hi == 27
    assert x.pow_int(0).lo == x.pow_int(0).hi == 1
    neg = CertifiedReal(Fraction(-3), Fraction(-2), 32)
    assert neg.pow_int(-2) == CertifiedReal(Fraction(1, 9), Fraction(1, 4), 32)


# Powers of a dyadic endpoint a / 2^q are rounded from the top bits of a^n
# (a rounding test in ``interval._pow_endpoint``) and fall back to the exact
# power when those bits cannot be decided.  The small fractions above
# rarely reach that route; the draws and cases below do.


def _dyadic_draw(rng: random.Random) -> Fraction:
    return Fraction(rng.getrandbits(rng.randrange(1, 251)) | 1, 2 ** rng.randrange(0, 301))


def test_pow_int_of_dyadic_intervals_is_bit_for_bit():
    rng = random.Random(1919)
    for _ in range(150):
        x = sorted([_dyadic_draw(rng), _dyadic_draw(rng)])
        n = rng.randrange(2, 301)
        precision = rng.randrange(8, 1025)
        out = CertifiedReal(x[0], x[1], precision).pow_int(n)
        assert (out.lo, out.hi) == _reference_op("pow_int", x, None, n, precision)


def _count_fallbacks(monkeypatch) -> Counter:
    # a fallback is a _floor_dyadic call made inside _pow_endpoint; counted
    # for endpoints a / 2^q with q > 0, next to the calls made for them
    counts, inside = Counter(), []
    pow_endpoint, floor_dyadic = interval._pow_endpoint, interval._floor_dyadic

    def counted_pow(x, n, bits, up):
        d = x[1]
        inside.append(d > 1 and not d & (d - 1))
        counts["dyadic"] += inside[-1]
        try:
            return pow_endpoint(x, n, bits, up)
        finally:
            inside.pop()

    def counted_floor(num, den, bits):
        counts["fallback"] += bool(inside and inside[-1])
        return floor_dyadic(num, den, bits)

    monkeypatch.setattr(interval, "_pow_endpoint", counted_pow)
    monkeypatch.setattr(interval, "_floor_dyadic", counted_floor)
    return counts


def _just_above(top: int, shift: int, n: int) -> int:
    """An odd a whose a^n exceeds top * 2^shift by less than a power cut
    to ``bits + 64`` bits can resolve, for n a power of two."""
    a = top << shift
    while n > 1:
        a, n = math.isqrt(a), n // 2
    return (a + 1) | 1


def _undecidable_cases() -> list:
    # (2^300 - 1)^2 = 2^600 - 2^301 + 1 lies so close below 2^600 that the
    # cut upper bound reaches it: the bounds differ in length
    cases = [(Fraction(2**300 - 1, 2**5), 2, p) for p in (8, 64, 128)]
    # a^n just above m * 2^shift, m odd with bits + 1 bits: the bounds
    # share their length but not their top bits m - 1 and m
    rng = random.Random(1920)
    for precision, n in [(8, 4), (128, 4), (128, 8), (1024, 4)]:
        bits = precision + GUARD_BITS
        top = rng.getrandbits(bits + 1) | 1 << bits | 1
        shift = n * (bits + 96) - bits - 1
        cases.append((Fraction(_just_above(top, shift, n), 2**7), n, precision))
    return cases


@pytest.mark.parametrize("x, n, precision", _undecidable_cases())
def test_pow_int_falls_back_where_top_bits_are_undecided(monkeypatch, x, n, precision):
    counts = _count_fallbacks(monkeypatch)
    out = CertifiedReal(x, x, precision).pow_int(n)
    assert counts == {"dyadic": 2, "fallback": 2}
    assert (out.lo, out.hi) == _reference_op("pow_int", [x, x], None, n, precision)


def test_verifier_powers_of_dyadics_never_fall_back(monkeypatch):
    # every rounded power of an a / 2^q endpoint the two sections take is
    # decided from its top bits (endpoints with other denominators take the
    # exact power by design); cold enclosure caches make the run complete,
    # and rebuilt trees hold no enclosure kept from an earlier test
    counts = _count_fallbacks(monkeypatch)
    _enclose_memo.cache_clear()
    enclose_zeta.cache_clear()
    for builder in vars(verifier).values():
        if hasattr(builder, "cache_clear") and builder.__module__ == verifier.__name__:
            builder.cache_clear()
    verify_section5()
    verify_section4_inert()
    assert counts["fallback"] == 0
    assert counts["dyadic"] > 500


@pytest.mark.parametrize("up", [False, True], ids=["down", "up"])
def test_exact_power_that_fits_its_significant_bits_is_kept(monkeypatch, up):
    # 6^25 = 3^25 * 2^25 has 65 bits but only 40 significant ones, at most
    # bits + 1 = 41 of them: the exact power is its own rounding both ways,
    # and no _floor_dyadic call is made to find that out
    calls = []
    floor_dyadic = interval._floor_dyadic

    def counted_floor(num, den, bits):
        calls.append((num, den, bits))
        return floor_dyadic(num, den, bits)

    monkeypatch.setattr(interval, "_floor_dyadic", counted_floor)
    assert interval._pow_endpoint((6, 1), 25, 40, up) == (6**25, 1)
    assert calls == []


def test_abs_of_straddling_interval():
    x = CertifiedReal(Fraction(-3), Fraction(2), 32)
    assert x.abs() == CertifiedReal(Fraction(0), Fraction(3), 32)
    y = CertifiedReal(Fraction(-3), Fraction(-2), 32)
    assert y.abs() == CertifiedReal(Fraction(2), Fraction(3), 32)


# ---------------------------------------------------------------------------
# Constant enclosures


@pytest.mark.parametrize("precision", [16, 64, 128])
def test_enclose_pi_contains_pi(precision):
    enc = enclose_pi(precision)
    assert _contains(enc, mp.pi)
    assert enc.width() > 0
    assert enc.width() < Fraction(1, 2 ** (precision - 8))


@pytest.mark.parametrize("s", [2, 4, 6, 8, 12, 16])
def test_enclose_zeta_contains_zeta(s):
    enc = enclose_zeta(s, 128)
    assert _contains(enc, mp.zeta(s))
    assert enc.width() < Fraction(1, 10**5)


@pytest.mark.parametrize("s", range(2, 41, 2))
def test_enclose_even_zeta_closed_form(s):
    widths = []
    for precision in (8, 32, 128, 1024):
        enc = enclose_zeta(s, precision)
        assert _contains(enc, mp.zeta(s))
        assert enc.width() > 0
        widths.append(enc.width())
    assert widths == sorted(widths, reverse=True)


def test_zeta2_sharpens_with_precision():
    assert enclose_zeta(2, 1024).width() < Fraction(1, 2**1000)


def test_enclose_zeta_rejects_small_s():
    with pytest.raises(ValueError, match="s must be an integer >= 2"):
        enclose_zeta(1, 64)


@pytest.mark.parametrize("s", [3, 5])
def test_enclose_zeta_rejects_odd_s(s):
    with pytest.raises(ValueError, match="even"):
        enclose_zeta(s, 128)


def test_enclosures_are_cached():
    assert enclose_pi(64) is enclose_pi(64)
    assert enclose_zeta(4, 128) is enclose_zeta(4, 128)


@pytest.mark.parametrize("value", [Fraction(2), Fraction(1, 3), Fraction(99, 7)])
def test_enclose_sqrt_exp_log(value):
    x = from_rational(value, 96)
    v = _as_mp(value)
    assert _contains(enclose_sqrt(x), mp.sqrt(v))
    assert _contains(enclose_exp(x), mp.exp(v))
    assert _contains(enclose_log(x), mp.log(v))


def test_enclose_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        enclose_sqrt(from_rational(Fraction(-1), 32))


def test_enclose_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        enclose_log(from_rational(Fraction(0), 32))


# ---------------------------------------------------------------------------
# Expression trees


def test_expression_sugar_builds_correct_enclosures():
    expr = (Rat(3) + 1) * PI / 2 - 1
    enc = expr.enclose(128)
    assert _contains(enc, 2 * mp.pi - 1)

    recip = 1 / Zeta(2)
    assert _contains(recip.enclose(128), 6 / mp.pi**2)

    assert _contains(Pow(PI, -2).enclose(128), mp.pi**-2)
    assert _contains((Rat(Fraction(1, 2)) - PI).enclose(128), mp.mpf("0.5") - mp.pi)


def test_expression_leaves():
    assert contains(Rat(Fraction(5, 3)).enclose(32), Fraction(5, 3))
    assert Abs(Rat(-5)).enclose(32) == CertifiedReal(Fraction(5), Fraction(5), 32)
    assert _contains(Sqrt(Rat(2)).enclose(128), mp.sqrt(2))
    assert _contains(Exp(Rat(1)).enclose(128), mp.e)
    assert _contains(Log(Rat(2)).enclose(128), mp.log(2))


def test_enclosure_memo_keys_on_structure_and_precision():
    trees = {
        Rat(2) - PI: 2 - mp.pi,
        Rat(2) + PI: 2 + mp.pi,
        PI - Rat(2): mp.pi - 2,
        Pow(PI, 2): mp.pi**2,
        Pow(PI, 3): mp.pi**3,
    }
    enclosures = [tree.enclose(128) for tree in trees]
    assert len(set(enclosures)) == len(trees)
    for enc, value in zip(enclosures, trees.values()):
        assert _contains(enc, value)
    low, high = Pow(PI, 3).enclose(128), Pow(PI, 3).enclose(256)
    assert (low.precision, high.precision) == (128, 256)
    assert high.width() <= low.width()
    # an unbounded memo keeps every node of a run alive
    assert _enclose_memo.cache_info().maxsize is not None


def _one_tree_per_kind() -> list:
    # built afresh on every call, so two calls give equal, distinct trees
    x = Rat(Fraction(3, 2)) * PI
    return [
        Rat(Fraction(3, 2)),
        Pi(),
        Zeta(4),
        Add(x, Zeta(2)),
        Sub(x, Zeta(2)),
        Mul(x, Zeta(2)),
        Div(x, Zeta(2)),
        Pow(x, 3),
        Sqrt(x),
        Exp(x),
        Log(x),
        Abs(Sub(Rat(1), x)),
    ]


def test_node_identity_is_structural():
    # the enclosure memo relies on these: equal trees are one key, trees of
    # different kinds over the same children are different keys
    precision = 136  # a precision no other test encloses at
    for a, b in zip(_one_tree_per_kind(), _one_tree_per_kind()):
        assert a is not b
        assert a == b and hash(a) == hash(b), type(a).__name__
        assert not hasattr(a, "__dict__"), type(a).__name__
        if isinstance(a, _Node):
            enc = a.enclose(precision)
            before = _enclose_memo.cache_info()
            assert b.enclose(precision) is enc
            after = _enclose_memo.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    x, y = Rat(2) * PI, Zeta(2)
    pair_kinds = [Add(x, y), Sub(x, y), Mul(x, y), Div(x, y)]
    for a, b in itertools.combinations(pair_kinds, 2):
        assert a != b
    assert Pow(x, 2) != Pow(x, 3)
    assert Add(x, y) != Add(y, x)
    assert Rat(2) == Rat(Fraction(4, 2))
    assert Rat(2) != Zeta(2)
    classes = [obj for obj in vars(interval).values() if inspect.isclass(obj)]
    assert not [c.__name__ for c in classes if dataclasses.is_dataclass(c)]


def test_integer_leaves_hold_ints():
    # an integral leaf keeps an int, so building, hashing and comparing it
    # touches no Fraction; any other leaf keeps the Fraction it was given
    assert type(Rat(2).args[0]) is int
    assert type(Rat(Fraction(4, 2)).args[0]) is int
    assert Rat(Fraction(3, 2)).args[0] == Fraction(3, 2)
    precision = 144  # a precision no other test encloses at
    enc = Mul(Rat(3), PI).enclose(precision)
    before = _enclose_memo.cache_info()
    assert Mul(Rat(3), PI).enclose(precision) is enc
    after = _enclose_memo.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_kept_enclosure_follows_the_requested_precision():
    # a node keeps only its last enclosure; asked at another precision it
    # encloses again, at that precision, as an equal tree built afresh does
    def interior():
        return [tree for tree in _one_tree_per_kind() if isinstance(tree, _Node)]

    nodes = interior()
    for precision in (128, 256, 128):
        enclosures = [node.enclose(precision) for node in nodes]
        _enclose_memo.cache_clear()
        fresh = [tree.enclose(precision) for tree in interior()]
        assert [enc.precision for enc in enclosures] == [precision] * len(nodes)
        assert enclosures == fresh


# one tree holding every node kind, built from this text in each process
_EVERY_KIND = (
    "Abs(Log(Exp(Sqrt(Pow(Div(Mul(Sub(Add(Rat(Fraction(3, 2)), Pi()), Zeta(4)),"
    " Rat(24)), Mul(Rat(2), PI)), 3)))))"
)


def test_node_unpickled_in_another_process_keeps_the_hash_contract():
    # a kept hash mixes in hash(type), which differs between processes, so
    # the loading process must rebuild the node rather than restore it
    tree = eval(_EVERY_KIND, vars(interval))
    assert pickle.loads(pickle.dumps(tree)) == tree
    child = (
        "import pickle, sys\n"
        "from eigenprod import interval\n"
        "m = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
        "n = eval(sys.argv[2], vars(interval))\n"
        "print(m == n, hash(m) == hash(n), m in {n}, {n: 1}.get(m))\n"
    )
    src = str(Path(interval.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", child, pickle.dumps(tree).hex(), _EVERY_KIND],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert proc.stdout.split() == ["True", "True", "True", "1"]


def test_pickled_node_keeps_no_enclosure():
    # an enclosure lives only as long as its node: the pickle of an
    # enclosed tree is that of a tree never enclosed, and loads bare
    tree = eval(_EVERY_KIND, vars(interval))
    bare = pickle.dumps(eval(_EVERY_KIND, vars(interval)))
    assert tree.enclose(128) is tree._kept
    assert pickle.dumps(tree) == bare
    stack = [pickle.loads(pickle.dumps(tree))]
    while stack:
        node = stack.pop()
        if isinstance(node, _Node):
            assert not hasattr(node, "_kept"), type(node).__name__
            stack.extend(node.args)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Rat(0.1),
        lambda: Rat(2) + 0.5,
        lambda: CertifiedReal(0.1, 0.2, 8),
        lambda: from_rational(0.5, 8),
        lambda: contains(CertifiedReal(1, 2, 8), 1.5),
        lambda: certified_compare(CertifiedReal(1, 2, 8), 3.14, ">"),
        lambda: evaluate_with_escalation(PI, 0.1, ">"),
    ],
    ids=["rat", "sugar", "interval", "from-rational", "contains", "compare", "escalation"],
)
def test_floats_rejected_at_the_certified_boundary(call):
    # a float's binary value is not the decimal it was written as
    with pytest.raises(TypeError):
        call()


# ---------------------------------------------------------------------------
# Comparisons


def test_outcome_labels():
    assert Outcome.CERTIFIED_TRUE.value == "CertifiedTrue"
    assert Outcome.CERTIFIED_FALSE.value == "CertifiedFalse"
    assert Outcome.INCONCLUSIVE.value == "Inconclusive"


def test_certified_compare_strict_relations():
    x = CertifiedReal(Fraction(1), Fraction(2), 64)
    assert certified_compare(x, 0, ">").outcome is Outcome.CERTIFIED_TRUE
    assert certified_compare(x, 3, ">").outcome is Outcome.CERTIFIED_FALSE
    assert certified_compare(x, Fraction(3, 2), ">").outcome is Outcome.INCONCLUSIVE
    assert certified_compare(x, 3, "<").outcome is Outcome.CERTIFIED_TRUE
    assert certified_compare(x, 1, "<").outcome is Outcome.CERTIFIED_FALSE
    assert certified_compare(x, 1, ">=").outcome is Outcome.CERTIFIED_TRUE
    assert certified_compare(x, 2, "<=").outcome is Outcome.CERTIFIED_TRUE


def test_certified_compare_equality_never_certified():
    # an interval cannot witness exact equality, even at width zero
    point = CertifiedReal(Fraction(1), Fraction(1), 64)
    assert certified_compare(point, 1, "=").outcome is Outcome.INCONCLUSIVE
    assert certified_compare(point, 2, "=").outcome is Outcome.CERTIFIED_FALSE


_RELATION_DEFINITIONS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
}


@pytest.mark.parametrize("relation", sorted(_RELATION_DEFINITIONS))
def test_certified_compare_matches_the_definition(relation):
    # every ordering of (lo, hi, t), ties and zero-width intervals included:
    # certified iff the relation holds at lo, hi and t (when t lies
    # inside), refuted iff it holds at none of them; '=' is never certified
    assert relation in RELATIONS
    holds = _RELATION_DEFINITIONS[relation]
    grid = [Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1)]
    for lo, hi, t in itertools.product(grid, repeat=3):
        if lo > hi:
            continue
        points = [lo, hi] + ([t] if lo <= t <= hi else [])
        hits = [holds(v, t) for v in points]
        if all(hits) and relation != "=":
            expected = Outcome.CERTIFIED_TRUE
        elif not any(hits):
            expected = Outcome.CERTIFIED_FALSE
        else:
            expected = Outcome.INCONCLUSIVE
        x = CertifiedReal(lo, hi, 64)
        assert certified_compare(x, t, relation).outcome is expected, (lo, hi, t)


def test_certified_compare_rejects_unknown_relation():
    x = CertifiedReal(Fraction(1), Fraction(2), 64)
    with pytest.raises(ValueError, match="unknown relation"):
        certified_compare(x, 1, "!=")


def test_decision_decided_property():
    x = CertifiedReal(Fraction(1), Fraction(2), 64)
    assert Decision(Outcome.CERTIFIED_TRUE, x).decided
    assert Decision(Outcome.CERTIFIED_FALSE, x).decided
    assert not Decision(Outcome.INCONCLUSIVE, x).decided


# ---------------------------------------------------------------------------
# Escalation


def test_escalation_raises_precision_until_decided():
    # pi < 355/113 by about 2.7e-7, invisible at 8 bits
    d = evaluate_with_escalation(PI, Fraction(355, 113), "<", 8, 1024)
    assert d.outcome is Outcome.CERTIFIED_TRUE
    assert d.precision_used > 8


def test_escalation_decides_false():
    d = evaluate_with_escalation(PI, 4, ">", 32, 64)
    assert d.outcome is Outcome.CERTIFIED_FALSE
    assert d.precision_used == 32


def test_escalation_inconclusive_at_ceiling():
    # threshold inside every enclosure the loop can produce: the midpoint
    # of a 300 bit enclosure of pi, compared at a 128 bit ceiling
    tight = enclose_pi(300)
    t = (tight.lo + tight.hi) / 2
    d = evaluate_with_escalation(PI, t, ">", 16, 128)
    assert d.outcome is Outcome.INCONCLUSIVE
    assert d.precision_used == 128
    assert d.note.startswith("undecided at ceiling 128")
    assert "still brackets the threshold" in d.note
    assert d.enclosure is not None and contains(d.enclosure, t)


def test_escalation_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown relation"):
        evaluate_with_escalation(PI, 3, "~", 32, 64)
    with pytest.raises(ValueError, match="base precision"):
        evaluate_with_escalation(PI, 3, ">", 4, 64)

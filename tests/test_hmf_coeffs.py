"""Eisenstein coefficient combinatorics.

Ideal counts are checked against the divisor-character sum, the
valuations above split primes against a root search over residues,
element enumeration against a plain box scan, coefficient tables against
the per-element ``coefficient``, product coefficients against a hand-expanded
convolution, linear combinations of tables against a dict-based sum, and
the Hecke relations at one prime of each class on the package
coefficients at powers of a prime generator.  The unequal-weight and both
equal-weight constant-term residuals are tied to the coefficients they
stand for.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenprod import (
    EisensteinDescriptor,
    IdealFactorization,
    PrimeClass,
    Splitting,
    cusp_dim_lower_bound,
    dedekind_zeta_neg,
    eisenstein_coeff,
    factor_ideal,
    kronecker,
    narrow_one_fields,
    residual_inert,
    residual_noninert,
    verify_sqrt5_identity,
)
from eigenprod import hmf_coeffs
from eigenprod.hmf_coeffs import (
    _combine,
    _convolve,
    _eisenstein_table,
    _omega_params,
    _Table,
    _trace_rows,
    element_norm,
)
import oracles
from oracles import (
    TotallyPositiveElement,
    coefficient,
    element_trace,
    enumerate_totally_nonneg,
    ideal_from_prime_powers,
    ideal_norm,
    ideals_of_norm,
    is_totally_nonnegative,
    residual_unequal,
)


def _divisor_character_sum(D: int, n: int) -> int:
    return sum(kronecker(D, d) for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# Elements


def test_element_invariants_sqrt5():
    # omega = (1 + sqrt 5) / 2: trace 2x + y, norm x^2 + xy - y^2
    nu = TotallyPositiveElement(5, 1, 1)
    assert nu.trace() == 3
    assert nu.norm() == 1
    assert not nu.is_zero()
    assert TotallyPositiveElement(5, 0, 0).is_zero()


def test_element_invariants_sqrt2():
    # omega = sqrt 2: trace 2x, norm x^2 - 2 y^2
    nu = TotallyPositiveElement(8, 2, 1)
    assert nu.trace() == 4
    assert nu.norm() == 2


def test_element_rejects_non_totally_nonnegative():
    with pytest.raises(ValueError, match="not totally nonnegative"):
        TotallyPositiveElement(5, 0, 1)
    with pytest.raises(ValueError):
        TotallyPositiveElement(5, -1, 0)


@pytest.mark.parametrize("D", [5, 8, 13, 17])
def test_enumeration_matches_box_scan(D):
    bound = 12
    listed = {(nu.x, nu.y) for nu in enumerate_totally_nonneg(D, bound)}
    scanned = set()
    for x in range(-2 * bound, 2 * bound + 1):
        for y in range(-2 * bound, 2 * bound + 1):
            if (x, y) == (0, 0):
                continue
            if not is_totally_nonnegative(D, x, y):
                continue
            if element_trace(D, x, y) <= bound:
                scanned.add((x, y))
    assert listed == scanned


def test_enumeration_counts_and_zero_flag():
    elems = enumerate_totally_nonneg(5, 10)
    assert len(elems) == 25
    assert all(1 <= nu.trace() <= 10 for nu in elems)
    assert all(nu.norm() >= 0 for nu in elems)
    assert not any(nu.is_zero() for nu in elems)


def test_enumeration_even_traces_when_omega_is_sqrt():
    assert all(nu.trace() % 2 == 0 for nu in enumerate_totally_nonneg(8, 14))


# ---------------------------------------------------------------------------
# Ideals


def test_ideal_norm_multiplies_prime_powers():
    ideal = ideal_from_prime_powers(
        5, [(4, PrimeClass.INERT, 2), (5, PrimeClass.RAMIFIED, 1)]
    )
    assert ideal_norm(ideal) == 80
    assert ideal.entries[0][0] == 4


def test_ideal_validation():
    with pytest.raises(ValueError, match="exponents must be >= 1"):
        ideal_from_prime_powers(5, [(4, PrimeClass.INERT, 0)])
    with pytest.raises(ValueError, match="is not p\\^2"):
        ideal_from_prime_powers(5, [(2, PrimeClass.INERT, 1)])
    with pytest.raises(ValueError, match="is not inert"):
        ideal_from_prime_powers(5, [(121, PrimeClass.INERT, 1)])
    with pytest.raises(ValueError, match="is not split"):
        ideal_from_prime_powers(5, [(2, PrimeClass.SPLIT_FACTOR, 1)])
    with pytest.raises(ValueError, match="is not ramified"):
        ideal_from_prime_powers(5, [(2, PrimeClass.RAMIFIED, 1)])
    with pytest.raises(ValueError, match="more than two factors"):
        ideal_from_prime_powers(
            5, [(11, PrimeClass.SPLIT_FACTOR, 1)] * 3
        )
    with pytest.raises(ValueError, match="repeated non-split"):
        ideal_from_prime_powers(
            5, [(5, PrimeClass.RAMIFIED, 1), (5, PrimeClass.RAMIFIED, 2)]
        )


def test_factor_ideal_spot_values():
    assert factor_ideal(5, 2).entries == ((4, PrimeClass.INERT, 1),)
    assert factor_ideal(5, 3, 1).entries == ((11, PrimeClass.SPLIT_FACTOR, 1),)
    assert factor_ideal(5, -1, 2).entries == ((5, PrimeClass.RAMIFIED, 1),)
    with pytest.raises(ValueError, match="zero element"):
        factor_ideal(5, 0, 0)


@settings(max_examples=300, derandomize=True)
@given(
    D=st.sampled_from([5, 8, 13, 17, 29]),
    x=st.integers(-40, 40),
    y=st.integers(-40, 40),
)
def test_factor_ideal_preserves_norm(D, x, y):
    n = element_norm(D, x, y)
    if n == 0:
        return
    assert ideal_norm(factor_ideal(D, x, y)) == abs(n)


@pytest.mark.parametrize("D", [5, 8, 12, 13, 17, 29])
def test_factor_ideal_entries_pass_validation(D):
    # factor_ideal builds its entries without ideal_from_prime_powers; they
    # must be exactly what that validation and canonical order return
    for nu in enumerate_totally_nonneg(D, 30):
        ideal = factor_ideal(D, nu.x, nu.y)
        assert ideal_norm(ideal) == abs(element_norm(D, nu.x, nu.y)), nu
        assert ideal_from_prime_powers(D, list(ideal.entries)) == ideal, nu


def _split_valuation_mismatches(factor, fields, grid):
    # an oracle sharing no code with factor_ideal: for each small p, the
    # roots of z^2 - t z + m mod p^j come from a search over range(p^j),
    # p^j <= 3000, grouped by their residue mod p.  p splits exactly when
    # there are two residues; the root r_j of a residue is unique mod p^j,
    # and v_P(x + y omega) at P = (p, omega - r_1) is the largest j with
    # p^j | x + y r_j.  An element whose valuation reaches the search's
    # last j is skipped: its true valuation may be larger.  Counts the
    # comparisons where both factors above p divide the element
    mismatches, compared = [], 0
    primes = [p for p in range(2, 54) if all(p % d for d in range(2, p))]
    for D in fields:
        t, m = _omega_params(D)
        lifts = {}
        for p in primes:
            depth = max(j for j in range(1, 12) if p**j <= 3000)
            by_residue = [{} for _ in range(depth + 1)]
            for j in range(1, depth + 1):
                for z in range(p**j):
                    if (z * z - t * z + m) % p**j == 0:
                        assert z % p not in by_residue[j], (D, p, j)
                        by_residue[j][z % p] = z
            if len(by_residue[1]) == 2:
                lifts[p] = [
                    [by_residue[j][r] for j in range(1, depth + 1)]
                    for r in by_residue[1]
                ]
        for x, y in grid:
            if element_norm(D, x, y) == 0:
                continue
            entries = factor(D, x, y).entries
            for p, roots in lifts.items():
                vals = [
                    max((j for j, r in enumerate(rs, 1) if (x + y * r) % p**j == 0),
                        default=0)
                    for rs in roots
                ]
                if max(vals) == len(roots[0]):
                    continue
                expected = sorted((v for v in vals if v), reverse=True)
                split = (p, PrimeClass.SPLIT_FACTOR)
                got = [e for q, c, e in entries if (q, c) == split]
                compared += len(expected) == 2
                if got != expected:
                    mismatches.append((D, x, y, p, got, expected))
    return mismatches, compared


def test_split_valuations_match_a_root_search_oracle():
    fields = [f.discriminant for f in narrow_one_fields(60)]
    grid = [(x, y) for x in range(-15, 16) for y in range(-15, 16)]
    mismatches, compared = _split_valuation_mismatches(factor_ideal, fields, grid)
    assert mismatches == []
    assert compared == 928

    def collapsed(D, x, y):
        # a wrong factor_ideal that gives the whole v_p(norm) to one factor
        # above each split p: the oracle must catch it
        entries = factor_ideal(D, x, y).entries
        split = {}
        for p, cls, e in entries:
            if cls is PrimeClass.SPLIT_FACTOR:
                split[p] = split.get(p, 0) + e
        kept = [a for a in entries if a[1] is not PrimeClass.SPLIT_FACTOR]
        kept += [(p, PrimeClass.SPLIT_FACTOR, e) for p, e in split.items()]
        return IdealFactorization(tuple(kept))

    mutant, _ = _split_valuation_mismatches(collapsed, fields, grid)
    assert (5, 11, 0, 11, [2], [1, 1]) in mutant


@pytest.mark.parametrize("D", [5, 8, 13, 17])
def test_ideal_counts_match_character_sum(D):
    for n in range(1, 201):
        ideals = ideals_of_norm(D, n)
        assert len(ideals) == _divisor_character_sum(D, n), (D, n)
        assert all(ideal_norm(a) == n for a in ideals)


def test_ideals_of_norm_one_is_unit_ideal():
    (unit,) = ideals_of_norm(5, 1)
    assert unit.entries == ()
    assert ideal_norm(unit) == 1


def test_no_ideals_at_odd_inert_valuation():
    assert ideals_of_norm(5, 2) == []
    assert ideals_of_norm(5, 8) == []


# ---------------------------------------------------------------------------
# Eisenstein series


def test_constant_terms():
    assert EisensteinDescriptor(5, 2).constant_term == Fraction(1, 120)
    assert EisensteinDescriptor(5, 4).constant_term == Fraction(1, 240)
    assert EisensteinDescriptor(8, 2).constant_term == Fraction(1, 48)


def test_descriptor_rejects_odd_weight():
    with pytest.raises(ValueError, match="weight must be even"):
        EisensteinDescriptor(5, 3)


def test_prime_power_coefficient_formula():
    e4 = EisensteinDescriptor(5, 4)
    ideal = ideal_from_prime_powers(5, [(11, PrimeClass.SPLIT_FACTOR, 2)])
    assert eisenstein_coeff(e4, ideal) == 1 + 11**3 + 11**6


def test_coefficient_multiplicative_on_coprime_parts():
    rng = random.Random(1303)
    e6 = EisensteinDescriptor(5, 6)
    pool = [
        (4, PrimeClass.INERT),
        (9, PrimeClass.INERT),
        (5, PrimeClass.RAMIFIED),
        (11, PrimeClass.SPLIT_FACTOR),
        (19, PrimeClass.SPLIT_FACTOR),
        (29, PrimeClass.SPLIT_FACTOR),
    ]
    for _ in range(60):
        picks = rng.sample(pool, 2)
        parts = [
            ideal_from_prime_powers(5, [(pn, cls, rng.randrange(1, 4))])
            for pn, cls in picks
        ]
        joint = ideal_from_prime_powers(
            5, [e for part in parts for e in part.entries]
        )
        assert eisenstein_coeff(e6, joint) == eisenstein_coeff(
            e6, parts[0]
        ) * eisenstein_coeff(e6, parts[1])


def test_coefficient_at_elements():
    e2 = EisensteinDescriptor(5, 2)
    assert coefficient(e2, TotallyPositiveElement(5, 0, 0)) == Fraction(1, 120)
    assert coefficient(e2, TotallyPositiveElement(5, 1, 0)) == 1
    # norm 4 inert ideal at weight 2: 1 + 4
    assert coefficient(e2, TotallyPositiveElement(5, 2, 0)) == 5
    with pytest.raises(ValueError, match="different fields"):
        coefficient(e2, TotallyPositiveElement(8, 1, 0))


@pytest.mark.parametrize("D,prime_norms", [(5, (4, 5, 11)), (8, (2, 9, 7)), (13, (4, 13, 3))])
def test_hecke_recurrence(D, prime_norms, hecke_relations):
    # one prime of each class, read through coefficient at generator powers
    for k in (2, 4, 6, 8):
        classes = {hecke_relations(D, q, k, 8) for q in prime_norms}
        assert classes == set(PrimeClass)


@pytest.mark.parametrize("D", [5, 8, 13])
def test_coefficient_bound_small_sweep(D):
    # every ideal of norm n <= 300: c(a) <= n^(k+1), and each prime power
    # p^e in its factorization has c(p^e) <= 3^e N(p)^(e (k-1))
    for k in (2, 4, 6):
        form = EisensteinDescriptor(D, k)
        for n in range(2, 301):
            for ideal in ideals_of_norm(D, n):
                assert eisenstein_coeff(form, ideal) <= n ** (k + 1), (n, k)
                for prime_norm, cls, e in ideal.entries:
                    part = IdealFactorization(((prime_norm, cls, e),))
                    bound = 3**e * prime_norm ** (e * (k - 1))
                    assert eisenstein_coeff(form, part) <= bound, (n, k)


@settings(max_examples=200, derandomize=True)
@given(
    D=st.sampled_from([5, 8, 13, 17, 29, 37]),
    n=st.integers(2, 400),
    k=st.sampled_from([2, 4, 6, 8, 10, 12]),
)
def test_coefficient_bound_pointwise(D, n, k):
    form = EisensteinDescriptor(D, k)
    for ideal in ideals_of_norm(D, n):
        assert eisenstein_coeff(form, ideal) <= n ** (k + 1)


# ---------------------------------------------------------------------------
# Products


def _product_table(f, h, trace_bound):
    # c_{f h}(nu) for every nonzero totally nonnegative nu = (x, y) of trace
    # <= trace_bound: a Fraction view of the convolution of the two tables
    D = f.discriminant
    product = _convolve(_eisenstein_table(f, trace_bound), _eisenstein_table(h, trace_bound))
    t = element_trace(D, 0, 1)  # the trace of omega: x = (s - t y) / 2
    ys = _trace_rows(D, trace_bound)
    return {
        ((s - t * y) // 2, y): Fraction(value, product.den)
        for s in range(1, trace_bound + 1)
        for y, value in zip(ys[s], product.rows[s])
    }


def _product_at(f, h, nu):
    # c_{f h}(nu) read from the product table up to the trace of nu, or
    # from row 0 of the convolution at nu = 0
    if nu.is_zero():
        product = _convolve(_eisenstein_table(f, 0), _eisenstein_table(h, 0))
        return Fraction(product.rows[0][0], product.den)
    return _product_table(f, h, nu.trace())[nu.x, nu.y]


def test_product_coefficient_hand_expanded():
    # nu = 1: only decompositions are 0 + 1 and 1 + 0, no trace 1
    # elements have nonnegative norm, so conv = 2 * (1/120) * 1
    e2 = EisensteinDescriptor(5, 2)
    assert _product_table(e2, e2, 2)[1, 0] == Fraction(1, 60)


def test_product_coefficient_symmetric_and_constant():
    e2 = EisensteinDescriptor(5, 2)
    e4 = EisensteinDescriptor(5, 4)
    zero = TotallyPositiveElement(5, 0, 0)
    assert _product_at(e2, e4, zero) == Fraction(1, 120) * Fraction(1, 240)
    assert _product_table(e2, e4, 6) == _product_table(e4, e2, 6)


@pytest.mark.parametrize("D", [5, 8, 12, 13])
def test_convolution_is_symmetric_and_starts_at_the_constant_terms(D):
    # rows of unequal length meet in either order, and both orders give one
    # table; t = 1 for D = 5, 13 and t = 0 for D = 8, 12
    for k1, k2 in ((2, 4), (4, 6)):
        f = EisensteinDescriptor(D, k1)
        h = EisensteinDescriptor(D, k2)
        a, b = _eisenstein_table(f, 16), _eisenstein_table(h, 16)
        product = _convolve(a, b)
        assert product == _convolve(b, a), (D, k1, k2)
        assert Fraction(product.rows[0][0], product.den) == (
            f.constant_term * h.constant_term
        ), (D, k1, k2)


def _signed_table(D, bound, den, seed):
    # a hand-built table with a negative constant term, mixed-sign rows,
    # an all-zero row 4 and one entry of size 2^200 in the top row
    rng = random.Random(seed)
    ys = _trace_rows(D, bound)
    rows = [[rng.randint(-(10**6), 10**6) for _ in y] for y in ys]
    rows[0] = [-rng.randint(1, 10**6)]
    rows[4] = [0] * len(ys[4])
    rows[bound][len(ys[bound]) // 2] = rng.choice((-1, 1)) * 2**200
    return _Table(D, den, rows)


def _dict_convolution(a, b):
    # c(s, y) = sum of a(s1, y1) b(s2, y2) over s1 + s2 = s, y1 + y2 = y,
    # accumulated in a dict keyed by (trace, y) and read back row by row
    bound = len(a.rows) - 1
    ys = _trace_rows(a.discriminant, bound)
    out = {}
    for s1, row1 in enumerate(a.rows):
        for s2, row2 in enumerate(b.rows[: bound - s1 + 1]):
            for y1, c1 in zip(ys[s1], row1):
                for y2, c2 in zip(ys[s2], row2):
                    key = (s1 + s2, y1 + y2)
                    out[key] = out.get(key, 0) + c1 * c2
    assert all(y in ys[s] for s, y in out)
    return [[out.get((s, y), 0) for y in ys[s]] for s in range(bound + 1)]


@pytest.mark.parametrize("D", [5, 8, 12, 13])
def test_packed_convolution_matches_a_dict_convolution(D):
    # signed entries, zero rows and a 2^200 entry all decode exactly from
    # their packed slots, over two different denominators
    a = _signed_table(D, 12, 7, seed=D)
    b = _signed_table(D, 12, 11, seed=D + 100)
    product = _convolve(a, b)
    assert product == _convolve(b, a)
    assert product.den == 77
    assert product.rows == _dict_convolution(a, b)
    assert any(c < 0 for row in product.rows for c in row)
    assert max(abs(c) for row in product.rows for c in row) > 2**200
    assert _convolve(a, a).rows == _dict_convolution(a, a)
    # every entry 200 bits wide and of one sign: the sums come as close to
    # the slot bound as entries of that size allow
    full = _Table(D, 1, [[1 - 2**200] * len(row) for row in a.rows])
    assert _convolve(full, full).rows == _dict_convolution(full, full)


def _dict_combination(terms):
    # sum of c * f(nu) / f.den over the terms, in a dict keyed by
    # (trace, y), zero entries kept
    out = {}
    for c, f in terms:
        ys = _trace_rows(f.discriminant, len(f.rows) - 1)
        for s, (row, y_s) in enumerate(zip(f.rows, ys)):
            for y, value in zip(y_s, row):
                out[s, y] = out.get((s, y), 0) + Fraction(c) * Fraction(value, f.den)
    return out


def _as_dict(table):
    ys = _trace_rows(table.discriminant, len(table.rows) - 1)
    return {
        (s, y): Fraction(value, table.den)
        for s, (row, y_s) in enumerate(zip(table.rows, ys))
        for y, value in zip(y_s, row)
    }


@pytest.mark.parametrize("D", [5, 8, 13])
def test_combination_matches_a_dict_combination(D):
    # signed tables over denominators 7 and 11; Fraction, integer, zero and
    # negative coefficients; the result lies over the lcm of c.den * f.den
    a = _signed_table(D, 12, 7, seed=D)
    b = _signed_table(D, 12, 11, seed=D + 100)
    cases = [
        [(Fraction(3, 4), a), (-2, b)],
        [(Fraction(-5, 6), a), (0, b), (Fraction(1, 14), a)],
        [(0, a), (Fraction(0), b)],
        [(1, a)],
        [(Fraction(-1, 3), b)],
    ]
    for terms in cases:
        combined = _combine(terms)
        dens = [Fraction(c).denominator * f.den for c, f in terms]
        assert combined.discriminant == D
        assert combined.den == math.lcm(*dens), terms
        assert [len(row) for row in combined.rows] == [len(row) for row in a.rows]
        assert _as_dict(combined) == _dict_combination(terms)
    assert _combine([(1, a)]) == a
    assert _combine([(Fraction(3, 4), a), (-2, b)]).den == 308
    assert all(c == 0 for row in _combine([(1, a), (-1, a)]).rows for c in row)


def test_combination_rejects_mixed_fields_and_bounds():
    a = _signed_table(5, 12, 7, seed=1)
    with pytest.raises(ValueError, match="different fields or trace bounds"):
        _combine([(1, a), (1, _signed_table(13, 12, 7, seed=1))])
    with pytest.raises(ValueError, match="different fields or trace bounds"):
        _combine([(1, a), (1, _signed_table(5, 10, 7, seed=1))])


@pytest.mark.parametrize("D", [5, 8, 12, 13])
def test_eisenstein_table_matches_coefficient(D):
    # the table of E_4 up to trace 30 against the per-element oracle, in
    # enumerate_totally_nonneg order after the constant term
    e4 = EisensteinDescriptor(D, 4)
    table = _eisenstein_table(e4, 30)
    entries = [Fraction(value, table.den) for row in table.rows for value in row]
    points = [TotallyPositiveElement(D, 0, 0)] + enumerate_totally_nonneg(D, 30)
    assert entries == [coefficient(e4, nu) for nu in points]


def _reference_product_coefficient(f, h, nu):
    # plain convolution over a box that holds every totally nonnegative mu
    # below nu: both embeddings of mu lie in [0, those of nu]
    D, T = nu.discriminant, nu.trace()
    total = Fraction(0)
    for x in range(-T, T + 1):
        for y in range(-T, T + 1):
            rx, ry = nu.x - x, nu.y - y
            if is_totally_nonnegative(D, x, y) and is_totally_nonnegative(D, rx, ry):
                mu = TotallyPositiveElement(D, x, y)
                rest = TotallyPositiveElement(D, rx, ry)
                total += coefficient(f, mu) * coefficient(h, rest)
    return total


@pytest.mark.parametrize("D", [5, 8, 13, 17])
def test_product_coefficient_matches_reference_convolution(D):
    for k1, k2 in ((2, 2), (2, 4), (4, 6)):
        f = EisensteinDescriptor(D, k1)
        h = EisensteinDescriptor(D, k2)
        for nu in [TotallyPositiveElement(D, 0, 0)] + enumerate_totally_nonneg(D, 10):
            expected = _reference_product_coefficient(f, h, nu)
            assert _product_at(f, h, nu) == expected, (D, k1, k2, nu)


@pytest.mark.parametrize("D", [5, 8, 12, 13])
def test_product_table_matches_reference_convolution(D):
    # one pass over all pairs up to trace 12 against the box convolution
    # of each nu; t = 1 for D = 5, 13 and t = 0 for D = 8, 12
    points = enumerate_totally_nonneg(D, 12)
    for k1, k2 in ((2, 2), (2, 4), (4, 6)):
        f = EisensteinDescriptor(D, k1)
        h = EisensteinDescriptor(D, k2)
        table = _product_table(f, h, 12)
        assert sorted(table) == sorted((nu.x, nu.y) for nu in points)
        for nu in points:
            expected = _reference_product_coefficient(f, h, nu)
            assert table[nu.x, nu.y] == expected, (D, k1, k2, nu)


@pytest.mark.parametrize("D", [5, 8, 13])
def test_memoised_divisor_sum_matches_eisenstein_coeff(D):
    # the product table reads its divisor sums through factor_ideal, the
    # one arithmetic memo; from a cleared cache and from a full one it must
    # equal the convolution of eisenstein_coeff values
    keys = [(nu.x, nu.y) for nu in enumerate_totally_nonneg(D, 20)]
    traces = {p: element_trace(D, *p) for p in keys}
    for k1, k2 in ((2, 2), (4, 6)):
        f = EisensteinDescriptor(D, k1)
        h = EisensteinDescriptor(D, k2)
        cf = {p: eisenstein_coeff(f, factor_ideal(D, *p)) for p in keys}
        ch = {p: eisenstein_coeff(h, factor_ideal(D, *p)) for p in keys}
        expected = {p: h.constant_term * cf[p] + f.constant_term * ch[p] for p in keys}
        for a in keys:
            for b in keys:
                if traces[a] + traces[b] <= 20:
                    expected[a[0] + b[0], a[1] + b[1]] += cf[a] * ch[b]
        factor_ideal.cache_clear()
        for _ in range(2):  # cold, then from the cache
            assert _product_table(f, h, 20) == expected, (D, k1, k2)


def test_factor_ideal_still_rejects_after_cached_calls():
    assert factor_ideal(5, 2, 1) == factor_ideal(5, 2, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="zero element"):
            factor_ideal(5, 0, 0)
        with pytest.raises(ValueError, match="not a real quadratic fundamental"):
            factor_ideal(45, 2, 1)


def test_sqrt5_identity_report():
    report = verify_sqrt5_identity(10)
    assert report.passed
    assert report.scalar == 60
    assert report.constant_term_ok
    assert report.coefficients_checked == 25
    assert report.mismatches == ()


def test_sqrt5_identity_constant_term_only():
    report = verify_sqrt5_identity(0)
    assert report.passed and report.coefficients_checked == 0
    with pytest.raises(ValueError):
        verify_sqrt5_identity(-1)


def test_sqrt5_identity_checks_every_element():
    for bound in range(41):
        report = verify_sqrt5_identity(bound)
        assert report.passed, bound
        assert report.coefficients_checked == len(enumerate_totally_nonneg(5, bound))


def test_sqrt5_identity_lists_two_wrong_divisor_sums_in_trace_order(monkeypatch):
    # factor_ideal is memoised, so the E_4 table reads these very ideal
    # objects for 2 + omega (trace 5) and 2 (trace 4) alone; associates such
    # as 3 - omega factor to equal but distinct objects.  Listed by trace
    targets = [factor_ideal(5, 2, 1), factor_ideal(5, 2, 0)]
    divisor_sum = hmf_coeffs.eisenstein_coeff
    monkeypatch.setattr(
        hmf_coeffs,
        "eisenstein_coeff",
        lambda form, ideal: divisor_sum(form, ideal)
        + (form.weight == 4 and any(ideal is t for t in targets)),
    )
    report = verify_sqrt5_identity(10)
    assert report.constant_term_ok and not report.passed
    assert report.coefficients_checked == 25
    assert report.mismatches == (
        "nu=(2,0): 60*conv=65 vs sigma_3=66",
        "nu=(2,1): 60*conv=126 vs sigma_3=127",
    )


def test_warm_sqrt5_identity_builds_no_elements(monkeypatch):
    # the demo is table work: once the factorizations are memoised it calls
    # no per-element coefficient and constructs no TotallyPositiveElement
    verify_sqrt5_identity(50)
    seen = []
    element_new = TotallyPositiveElement.__new__

    def counting_new(cls, *args):
        seen.append("element")
        return element_new(cls, *args)

    monkeypatch.setattr(oracles, "coefficient", lambda *args: seen.append("coefficient"))
    monkeypatch.setattr(TotallyPositiveElement, "__new__", counting_new)
    report = verify_sqrt5_identity(50)
    assert report.passed and report.coefficients_checked == 571
    assert seen == []
    # the counter is live: one construction is seen
    TotallyPositiveElement(5, 1, 0)
    assert seen == ["element"]


# ---------------------------------------------------------------------------
# Cusp dimension bound


def test_cusp_dimension_anchors():
    assert cusp_dim_lower_bound(13, 2) == 1
    assert cusp_dim_lower_bound(17, 2) == 2
    assert cusp_dim_lower_bound(17, 3) == 5
    assert cusp_dim_lower_bound(29, 2) == 2
    assert cusp_dim_lower_bound(37, 2) == 3
    assert cusp_dim_lower_bound(41, 2) == 6
    assert cusp_dim_lower_bound(53, 2) == 4
    assert cusp_dim_lower_bound(73, 2) == 15
    assert isinstance(cusp_dim_lower_bound(13, 2), Fraction)


def test_cusp_dimension_bound_domain():
    with pytest.raises(ValueError, match="requires D > 12"):
        cusp_dim_lower_bound(5, 2)
    with pytest.raises(ValueError, match="narrow class number one"):
        cusp_dim_lower_bound(40, 2)
    # h+(229) = 3: a prime = 1 mod 4 that passes the genus prefilter
    with pytest.raises(ValueError, match="narrow class number one"):
        cusp_dim_lower_bound(229, 2)
    with pytest.raises(ValueError, match="k must be >= 2"):
        cusp_dim_lower_bound(13, 1)


# ---------------------------------------------------------------------------
# Constant-term residuals against the coefficient engine


def test_unequal_residual_is_the_coefficient_gap_at_one():
    """residual_unequal(D, k1, k2) = 4 zeta_F(1-k1-k2) (c_{E_k1 E_k2}(1)
    - lambda c_{E_{k1+k2}}(1)), with lambda = c_0(E_k1) c_0(E_k2) /
    c_0(E_{k1+k2}) the scalar that matches the constant terms.

    No totally positive element has trace 1, so only the two boundary
    terms reach nu = 1: with A, B, C the zeta values at 1-k1, 1-k2 and
    1-k1-k2, the product coefficient there is (A + B) / 4, lambda is
    A B / (4 C) and c_{E_{k1+k2}}(1) = 1, which leaves (A + B) C - A B.
    The right side is read from the coefficient engine alone, so flipping
    any sign in residual_unequal fails the test.
    """
    triples = 0
    for field in narrow_one_fields(200):
        D = field.discriminant
        one = TotallyPositiveElement(D, 1, 0)
        forms = {k: EisensteinDescriptor(D, k) for k in range(2, 25, 2)}
        for k1 in range(4, 13, 2):
            for k2 in range(2, k1, 2):
                f, h, fh = forms[k1], forms[k2], forms[k1 + k2]
                lam = f.constant_term * h.constant_term / fh.constant_term
                gap = _product_at(f, h, one) - lam * coefficient(fh, one)
                expected = 4 * dedekind_zeta_neg(D, k1 + k2) * gap
                assert residual_unequal(D, k1, k2) == expected, (D, k1, k2)
                triples += 1
    assert triples == 330


def test_inert_residual_is_the_coefficient_gap_at_one_and_two():
    """residual_inert(D, k) = -4 zeta_F(1-2k) (gap(2) - (1 + 4^(k-1)) gap(1))
    for 2 inert, where gap(nu) = c_{E_k E_k}(nu) - lambda c_{E_2k}(nu) and
    lambda = c_0(E_k)^2 / c_0(E_2k).

    With A = zeta_F(1-k), C = zeta_F(1-2k), c_0(E_k) = A / 4 and
    lambda = A^2 / (4 C).  No totally positive element has trace 1, so
    only the boundary terms reach nu = 1: gap(1) = A / 2 - lambda.  At
    nu = 2 the only interior split is 1 + 1, since (2 +- y sqrt(D)) / 2 is
    totally positive only for y = 0 once D >= 5; it adds
    sigma_{k-1}(1)^2 = 1.  With 2 inert, (2) is prime of norm 4, so
    sigma_{k-1}((2)) = 1 + 4^(k-1) and sigma_{2k-1}((2)) = 1 + 4^(2k-1):
    gap(2) = (A / 2)(1 + 4^(k-1)) + 1 - lambda (1 + 4^(2k-1)).  The
    boundary terms cancel in the combination, which leaves
    1 - lambda (4^(2k-1) - 4^(k-1)); times -4 C that is
    (4^(2k-1) - 4^(k-1)) A^2 - 4 C, the residual.  The right side is read
    from the coefficient engine alone, so flipping either sign in
    residual_inert fails the test.
    """
    pairs = 0
    for field in narrow_one_fields(200):
        if field.two_splitting is not Splitting.INERT:
            continue
        D = field.discriminant
        one, two = TotallyPositiveElement(D, 1, 0), TotallyPositiveElement(D, 2, 0)
        for k in range(2, 13, 2):
            f, f2 = EisensteinDescriptor(D, k), EisensteinDescriptor(D, 2 * k)
            lam = f.constant_term**2 / f2.constant_term
            gap1, gap2 = (
                _product_at(f, f, nu) - lam * coefficient(f2, nu)
                for nu in (one, two)
            )
            expected = -4 * dedekind_zeta_neg(D, 2 * k) * (gap2 - (1 + 4 ** (k - 1)) * gap1)
            assert residual_inert(D, k) == expected, (D, k)
            pairs += 1
    assert pairs == 78


def test_noninert_residual_is_the_coefficient_gap_at_pi(prime_generator):
    """gap(pi) - (1 + 2^(k-1)) gap(1) = -lambda residual_noninert(k) when 2
    splits or ramifies, with pi a totally positive generator of a prime
    above 2 and gap, lambda as in the inert test.

    No interior split reaches pi (see residual_noninert), so gap(pi) =
    (A / 2)(1 + 2^(k-1)) - lambda (1 + 2^(2k-1)) against gap(1) =
    A / 2 - lambda, and the boundary terms cancel.  The right side's
    lambda and the left side are read from the coefficient engine alone,
    so flipping either sign in residual_noninert fails the test.
    """
    traces = []
    for D in (8, 17, 41, 73):
        pi = prime_generator(D, 2)
        one = TotallyPositiveElement(D, 1, 0)
        traces.append(pi.trace())
        for k in (2, 4, 6):
            f, f2 = EisensteinDescriptor(D, k), EisensteinDescriptor(D, 2 * k)
            lam = f.constant_term**2 / f2.constant_term
            gap1, gap_pi = (
                _product_at(f, f, nu) - lam * coefficient(f2, nu)
                for nu in (one, pi)
            )
            assert gap_pi - (1 + 2 ** (k - 1)) * gap1 == -lam * residual_noninert(k), (D, k)
    assert traces == [4, 5, 7, 9]

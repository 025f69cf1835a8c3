"""Elimination runs: certified constants, candidate bookkeeping, tables.

The frozen windows asserted here were computed from the enclosures
themselves and cross-checked against the golden tables; every default run
must reproduce them bit for bit.
"""

import hashlib
import inspect
import json
import operator
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from eigenprod import (
    DEFAULT_D_LIMIT,
    PI,
    Exp,
    Fixtures,
    MissingFixtureError,
    Outcome,
    Pow,
    Rat,
    Zeta,
    c_equal_expr,
    c_unequal_expr,
    compare_to_golden,
    dedekind_zeta_neg,
    evaluate_with_escalation,
    exact_identity_scan,
    inert_one_fields,
    is_fundamental_discriminant,
    narrow_one_fields,
    noninert_one_fields,
    residual_inert,
    residual_noninert,
    splitting_of_two,
    takeuchi_constants,
    verify_section3_equal,
    verify_section3_unequal,
    verify_section4_inert,
    verify_section4_noninert,
    verify_section5,
    verify_sqrt5_identity,
    voight_min_disc,
)
from eigenprod import hmf_coeffs
from eigenprod.quadfield import Splitting
from eigenprod.report import (
    ELIMINATED_BY_BOUND,
    ELIMINATED_BY_DIMENSION,
    ELIMINATED_BY_EXACT_IDENTITY,
    ELIMINATED_BY_FIXTURE,
    SURVIVOR,
    VERDICT_FAILED,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_IDENTITY,
    fraction_str,
    golden_tables,
)
from eigenprod import exact, interval, verifier
from eigenprod.exact import ZETA_MODULUS, zeta_residues
from eigenprod.cli import EXIT_FAILURE, EXIT_OK, main
from eigenprod.verifier import _degree_base, _degree_point, _takeuchi
from oracles import residual_unequal, subset_of

_EMPTY_FIXTURES = Fixtures.from_document({"facts": {}}, origin="empty")


# ---------------------------------------------------------------------------
# Candidate universes


def test_field_universes_split_by_two():
    assert inert_one_fields(41) == (13, 29, 37)
    assert noninert_one_fields(41) == (8, 17, 41)
    assert len(inert_one_fields(4000)) == 122
    assert len(noninert_one_fields(4000)) == 112


def test_field_universes_partition_narrow_one():
    inert = inert_one_fields(500)
    other = noninert_one_fields(500)
    assert not set(inert) & set(other)
    narrow_one = [f.discriminant for f in narrow_one_fields(500)]
    assert sorted(set(inert) | set(other)) == [d for d in narrow_one if d > 5]
    assert all(splitting_of_two(d) is Splitting.INERT for d in inert)
    assert all(splitting_of_two(d) is not Splitting.INERT for d in other)


# ---------------------------------------------------------------------------
# Comparison constants


def test_unequal_constant_window_d8():
    enc = c_unequal_expr(8, 4, 2).enclose(128)
    center = Fraction(72291, 10**4)
    assert subset_of(enc, center - Fraction(1, 10**4), center + Fraction(1, 10**4))
    assert enc.width() < Fraction(1, 10**4)
    assert enc.lo > 1


def test_unequal_constants_along_chain():
    windows = {
        13: (Fraction(828, 100), Fraction(829, 100)),
        17: (Fraction(676, 10), Fraction(677, 10)),
        29: (913, 914),
        37: (2601, 2602),
    }
    previous = c_unequal_expr(8, 4, 2).enclose(128)
    for D, (lo, hi) in windows.items():
        enc = c_unequal_expr(D, 4, 2).enclose(128)
        assert subset_of(enc, lo, hi), D
        assert enc.lo > previous.hi  # strictly increasing in D
        previous = enc


def test_unequal_expr_validation():
    with pytest.raises(ValueError):
        c_unequal_expr(8, 2, 2)
    with pytest.raises(ValueError):
        c_unequal_expr(8, 5, 2)
    with pytest.raises(ValueError):
        c_unequal_expr(4, 4, 2)


def test_equal_constant_weight_boundary():
    assert c_equal_expr(13, 20).enclose(128).hi < 1
    assert c_equal_expr(13, 22).enclose(128).lo > 1
    assert c_equal_expr(13, 2).enclose(128).hi < c_equal_expr(13, 4).enclose(128).lo


def test_equal_constant_discriminant_boundary():
    # both straddle points sit below 1; the primary table stops at 1549
    # because 1565 = 5 * 313 has narrow class number two, not because the
    # inequality turns
    assert c_equal_expr(1549, 2).enclose(128).hi < 1
    assert c_equal_expr(1565, 2).enclose(128).hi < 1
    assert (
        c_equal_expr(1549, 2).enclose(128).hi < c_equal_expr(1565, 2).enclose(128).lo
    )


def test_equal_expr_validation():
    with pytest.raises(ValueError):
        c_equal_expr(12, 2)
    with pytest.raises(ValueError):
        c_equal_expr(13, 3)


# ---------------------------------------------------------------------------
# Exact residuals


def test_inert_residual_vanishes_only_at_the_identity():
    assert residual_inert(5, 2) == 0
    assert residual_inert(13, 2) == Fraction(-4, 15)
    for D in (13, 29, 37):
        for k in range(2, 13, 2):
            if (D, k) != (5, 2):
                assert residual_inert(D, k) != 0, (D, k)


def test_noninert_residual_is_positive():
    assert [residual_noninert(k) for k in range(2, 7)] == [6, 28, 120, 496, 2016]
    assert all(residual_noninert(k) > 0 for k in range(2, 41))


def test_unequal_residual_never_vanishes():
    assert residual_unequal(5, 4, 2) == Fraction(1, 210)
    for D in (5, 8, 13):
        for k1 in range(4, 13, 2):
            for k2 in range(2, k1, 2):
                assert residual_unequal(D, k1, k2) != 0, (D, k1, k2)


def _fraction_residual_inert(D, k):
    # the Fraction formula, written apart from the package's shared residual
    a = dedekind_zeta_neg(D, k)
    return (4 ** (2 * k - 1) - 4 ** (k - 1)) * a * a - 4 * dedekind_zeta_neg(D, 2 * k)


def test_integer_residuals_match_fraction_formulas():
    # the inert residual is the package's shared residual on the exact
    # values, a reduced Fraction; the unequal one, residual_unequal, is
    # itself the Fraction formula, held to the scan by the planted zeros
    # below and to the coefficients at nu = 1
    checked = 0
    for f in narrow_one_fields(200):
        D = f.discriminant
        for k in range(2, 21, 2):
            got, want = residual_inert(D, k), _fraction_residual_inert(D, k)
            assert isinstance(got, Fraction), (D, k)
            assert (got.numerator, got.denominator) == (
                want.numerator,
                want.denominator,
            ), (D, k)
            checked += 1
    assert checked == 22 * 10


def test_exact_identity_scan_finds_the_unique_identity():
    assert exact_identity_scan(100, 12) == [(5, 2, 2)]
    assert exact_identity_scan(41, 8) == [(5, 2, 2)]


def test_exact_identity_scan_unique_identity_to_d_2000_k_24():
    assert exact_identity_scan(2000, 24) == [(5, 2, 2)]


def _residue(value):
    return value.numerator * pow(value.denominator, -1, ZETA_MODULUS) % ZETA_MODULUS


def _move_zeta(monkeypatch, patched, value, exact_too):
    # moves zeta_F(1 - k) at (D, k) = patched to value: its residue in every
    # row the scan reads, and with exact_too the exact value as well
    D, k = patched
    residues = hmf_coeffs.zeta_residues

    def moved(targets):
        rows = dict(residues(targets))
        if D in rows:
            row = list(rows[D])
            row[k // 2 - 1] = _residue(value)
            rows[D] = tuple(row)
        return rows

    monkeypatch.setattr(hmf_coeffs, "zeta_residues", moved)
    zeta = hmf_coeffs.dedekind_zeta_neg
    asked = set()

    def exact_value(d, j):
        asked.add((d, j))
        return value if exact_too and (d, j) == patched else zeta(d, j)

    monkeypatch.setattr(hmf_coeffs, "dedekind_zeta_neg", exact_value)
    return asked


def _vanishing_value(D, k1, k2):
    # the zeta value at 1 - k1 - k2 (unequal) or 1 - 2 k1 (equal, 2 inert)
    # that makes the residual of (D, k1, k2) vanish
    a, b = dedekind_zeta_neg(D, k1), dedekind_zeta_neg(D, k2)
    if k1 != k2:
        return a * b / (a + b)
    return (4 ** (2 * k1 - 1) - 4 ** (k1 - 1)) * a * a / 4


_PLANTED_ZEROS = pytest.mark.parametrize(
    "patched, zero",
    [
        # C = AB / (A + B) zeroes (A + B) C - AB, with C at weight 6 + 4
        ((13, 10), (13, 6, 4)),
        # zeta(1 - 2k) = m A^2 / 4, m = 4^(2k-1) - 4^(k-1), at k = 4 (2 inert)
        ((13, 8), (13, 4, 4)),
        # the loop edges: the heaviest k1 with the lightest k2, and the
        # heaviest equal pair, whose zeta(1 - 2k) is the heaviest value read
        ((13, 10), (13, 8, 2)),
        ((13, 16), (13, 8, 8)),
    ],
    ids=["unequal", "inert", "unequal-edge", "inert-edge"],
)


@_PLANTED_ZEROS
def test_exact_identity_scan_lists_a_vanishing_residual(monkeypatch, patched, zero):
    # every true residual is nonzero away from (5, 2, 2), so a sign slip in
    # a cross-product or in its residue would go unseen; one zeta value is
    # moved, in the residues and in the exact values, to make a chosen
    # residual vanish, and the scan must list exactly that triple
    D, k1, k2 = zero
    _move_zeta(monkeypatch, patched, _vanishing_value(D, k1, k2), exact_too=True)
    assert (residual_unequal(D, k1, k2) if k1 != k2 else residual_inert(D, k1)) == 0
    assert exact_identity_scan(100, 8) == [(5, 2, 2), zero]


@_PLANTED_ZEROS
def test_exact_identity_scan_decides_a_vanishing_residue_exactly(
    monkeypatch, patched, zero
):
    # the same value moved in the residues alone: the residue of the chosen
    # residual vanishes, its exact value does not, so the triple is not
    # listed; the exact values are asked for at those two triples only
    D, k1, k2 = zero
    asked = _move_zeta(monkeypatch, patched, _vanishing_value(D, k1, k2), exact_too=False)
    assert exact_identity_scan(100, 8) == [(5, 2, 2)]
    assert asked == {(5, 2), (5, 4), (D, k1), (D, k2), (D, k1 + k2)}


def test_zeta_residues_are_the_exact_values_mod_the_prime():
    zeta_residues.cache_clear()
    fields = [f.discriminant for f in narrow_one_fields(2000)]
    rows = zeta_residues({D: 48 for D in fields})
    assert len(fields) == 132
    for D in fields:
        assert rows[D] == tuple(
            _residue(dedekind_zeta_neg(D, k)) for k in range(2, 49, 2)
        ), D


@pytest.mark.parametrize(
    "d_limit, k_limit",
    [(ZETA_MODULUS, 2), (5, ZETA_MODULUS // 4 + 1), (10**15, 4)],
    ids=["discriminant", "weight", "far"],
)
def test_scan_limits_past_the_modulus_raise_before_any_table(monkeypatch, d_limit, k_limit):
    # the residues are images of the exact values only below the modulus;
    # the guard trips before the weights are tried or a field list or a
    # residue row is built
    def built(*args):
        raise AssertionError("the scan started")

    for name in ("residual_noninert", "narrow_one_fields", "zeta_residues"):
        monkeypatch.setattr(hmf_coeffs, name, built)
    with pytest.raises(ValueError, match=f"must stay below {ZETA_MODULUS}"):
        exact_identity_scan(d_limit, k_limit)


def test_scan_guard_admits_the_discriminant_limit_below_the_modulus(monkeypatch):
    # an empty field list keeps the run short
    monkeypatch.setattr(hmf_coeffs, "narrow_one_fields", lambda d: ())
    assert exact_identity_scan(ZETA_MODULUS - 1, 2) == []


def test_exact_identity_scan_lists_a_vanishing_noninert_factor(monkeypatch):
    # the split/ramified factor is decided once per weight, so a factor made
    # to vanish at the heaviest weight must list every such field there
    factor = hmf_coeffs.residual_noninert
    monkeypatch.setattr(
        hmf_coeffs, "residual_noninert", lambda k: 0 if k == 8 else factor(k)
    )
    noninert = [
        (f.discriminant, 8, 8)
        for f in narrow_one_fields(100)
        if f.two_splitting is not Splitting.INERT
    ]
    assert noninert
    assert exact_identity_scan(100, 8) == sorted([(5, 2, 2)] + noninert)


# ---------------------------------------------------------------------------
# Shared report invariants


SECTIONS = ["s3-unequal", "s3-equal", "s4-inert", "s4-noninert", "s5"]


@pytest.mark.parametrize("section", SECTIONS)
def test_default_runs_certify_everything(default_reports, section):
    report = default_reports[section]
    assert report.section == section
    assert report.verdict == VERDICT_NO_IDENTITY
    assert report.inconclusive == 0
    assert report.survivors == []
    assert report.candidates
    assert all(
        rec.decision.outcome is Outcome.CERTIFIED_TRUE for rec in report.constants
    )


@pytest.mark.parametrize("section", SECTIONS)
def test_constant_names_are_unique(default_reports, section):
    names = [rec.name for rec in default_reports[section].constants]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("section", SECTIONS)
def test_reports_serialize_canonically(default_reports, section):
    report = default_reports[section]
    text = report.to_json()
    assert json.loads(text)["verdict"] == VERDICT_NO_IDENTITY
    assert text == report.to_json()


# sha256 of the proof skeleton: the ordered (name, relation, threshold,
# outcome) of every recorded constant, one line each.  Enclosure digits are
# left out, so a deliberate change to the interval kernel does not move
# these; a reordered, renamed, added or dropped certificate does.
SKELETON_DIGESTS = {
    "s3-unequal": (49, "4b3386a356cf6be480794dde78569e60e927419dc678fd31dce53f7acf06334e"),
    "s3-equal": (143, "60e65a84cd09466eca8854089481a8f4585ccb3dbae0783b51400fc6cdb52891"),
    "s4-inert": (869, "947caa0e41105e2ef096bde1f6a9d7abd362ac29a3ab738d141a4c54bf83b3a1"),
    "s4-noninert": (103, "cfccb6c4653a53190bc785aaaeee9ef7ccb6dbd704e1866dffec45728ab25579"),
    "s5": (306, "6fc694a7e00c00624b6acbd0658f1ee7645606a49af970dfd1b7ab6ee127a35a"),
}


@pytest.mark.parametrize("section", SECTIONS)
def test_proof_skeleton_order_is_pinned(default_reports, section):
    constants = default_reports[section].constants
    text = "\n".join(
        f"{c.name} {c.relation} {fraction_str(c.threshold)} {c.decision.outcome.value}"
        for c in constants
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(constants), digest) == SKELETON_DIGESTS[section]


# sha256 of the whole canonical report, enclosure digits included.  The
# interval kernel's rounding decides those digits, so a kernel change that
# keeps these digests is byte-identical; a deliberate change to the digits
# updates them and says so.
REPORT_DIGESTS = {
    "s3-unequal": "bdb460dbd0963d4fe1438fb2889ff6fc7ddc11e01677a808ef237dbb9febcd3c",
    "s3-equal": "0ee5f892c3af8e40af8264d8f12b5810bff7dae8568afc63806eb82ecfc30dad",
    "s4-inert": "4c9760b7e6e2be73ade997c7ec4b414e1efea833b51fb74770f464c4fcf9319d",
    "s4-noninert": "c3ac635b8fab8b173981ef6f0ff93e581a277cfba04fb1c2450f236880804de8",
    "s5": "313b5818596165bea0c5f4a4b88e170aba2727d3386e2d5f3c240467e9b73fe9",
}


@pytest.mark.parametrize("section", SECTIONS)
def test_report_bytes_are_pinned(default_reports, section):
    text = default_reports[section].to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[section]


# sha256 of the two sections that raise enclosures to the highest powers,
# at base precision 1024, where pow_int rounds most of its endpoints from
# their top bits.  The digests are those of the exact power rounded once,
# so the top-bits route keeps every digit or fails here.
PRECISION1024_DIGESTS = {
    "s4-inert": "7b22ef28bd19dbcfb7bb9bd784c195d952e392d0f42a607dff32b380b80e4ed2",
    "s5": "c0e0ef4a1b7f19e240b7eeb83f9a06ff9ea5e82e3a1b8e6f12a08f5d55d15145",
}


@pytest.mark.parametrize("section", sorted(PRECISION1024_DIGESTS))
def test_report_bytes_at_1024_bits_are_pinned(section):
    run = {"s4-inert": verify_section4_inert, "s5": verify_section5}[section]
    text = run(base_precision=1024).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PRECISION1024_DIGESTS[section]


# sha256 of the three sections that sweep the narrow-one fields, at
# --d-limit 20000, five times the default.  Every sweep closes below the
# default limit, so widening the universe changes no byte of their reports.
D_LIMIT_20000_DIGESTS = {
    section: REPORT_DIGESTS[section] for section in ("s3-equal", "s4-inert", "s4-noninert")
}


@pytest.mark.parametrize("section", sorted(D_LIMIT_20000_DIGESTS))
def test_report_bytes_at_the_stress_discriminant_limit_are_pinned(section):
    run = {
        "s3-equal": verify_section3_equal,
        "s4-inert": verify_section4_inert,
        "s4-noninert": verify_section4_noninert,
    }[section]
    text = run(d_limit=20000).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == D_LIMIT_20000_DIGESTS[section]


# sha256 of s5 at an 8-bit ceiling, the only section that fails there: five
# certificates stay undecided and three degree families turn into
# survivors.  Pins the failure path as REPORT_DIGESTS pins the success path.
S5_CEILING8_DIGEST = "4f32c6c2aae7e6d8e661f2164d71daff45af7e137b1cc01123cd46dd71525d7c"


def test_failure_report_bytes_are_pinned():
    text = verify_section5(base_precision=8, precision_ceiling=8).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == S5_CEILING8_DIGEST


def test_reproduced_tables_match_golden(default_reports):
    for section in ("s3-equal", "s4-inert", "s4-noninert"):
        assert compare_to_golden(default_reports[section]) == [], section


def test_doubling_precision_never_widens_an_enclosure(monkeypatch):
    # every tree two sections probe, re-enclosed on a doubling ladder: the
    # width must not grow, or escalation could fail to sharpen a decision
    probe = verifier.evaluate_with_escalation
    trees = set()

    def capture(expr, *args):
        trees.add(expr)
        return probe(expr, *args)

    monkeypatch.setattr(verifier, "evaluate_with_escalation", capture)
    verify_section3_unequal()
    verify_section5()
    assert len(trees) > 300
    for expr in trees:
        widths = [expr.enclose(p).width() for p in (8, 16, 32, 64, 128)]
        assert widths == sorted(widths, reverse=True), expr


def test_verify_all_probe_count_is_pinned(monkeypatch):
    # counted as above, over the five sections at the defaults.  Walking
    # the wider-reading universe of s3-equal instead of bisecting it took
    # 1452 probes, and probing its boundary fields again after the
    # bisection 1286
    probe = verifier.evaluate_with_escalation
    calls = 0

    def count(expr, *args):
        nonlocal calls
        calls += 1
        return probe(expr, *args)

    monkeypatch.setattr(verifier, "evaluate_with_escalation", count)
    verify_section3_unequal()
    verify_section3_equal()
    verify_section4_inert()
    verify_section4_noninert()
    verify_section5()
    assert calls == 1266


@pytest.mark.parametrize(
    "precision",
    [{}, {"base_precision": 8, "precision_ceiling": 8}],
    ids=["defaults", "ceiling8"],
)
def test_wider_reading_records_the_bisections_decisions(monkeypatch, precision):
    # the boundary fields of each wider-reading row are recorded from the
    # bisection's own probes: 205 probes at the defaults, 225 when they were
    # probed again.  Each record is still what a fresh probe of its tree
    # decides, the exceeds side flipped to '>'
    probe = verifier.evaluate_with_escalation
    calls = 0

    def count(expr, *args):
        nonlocal calls
        calls += 1
        return probe(expr, *args)

    monkeypatch.setattr(verifier, "evaluate_with_escalation", count)
    report = verify_section3_equal(**precision)
    if not precision:
        assert calls == 205
    alt = [rec for rec in report.constants if rec.name.startswith("table1_alt_")]
    assert len(alt) == 20
    for rec in alt:
        k, d, side = rec.name.removeprefix("table1_alt_k").split("_")
        tree = c_equal_expr(int(d.removeprefix("d")), int(k))
        assert rec.relation == {"admits": "<=", "exceeds": ">"}[side], rec.name
        fresh = probe(tree, rec.threshold, rec.relation, **precision)
        assert rec.decision == fresh, rec.name


def test_flipped_decision_keeps_an_undecided_one():
    # a decided '<=' becomes the opposite answer to '>' on the same
    # enclosure; an undecided one is kept, note and all, which is also what
    # escalation gives the flip at the same ceiling
    refuted = evaluate_with_escalation(Rat(Fraction(5, 4)), 1, "<=")
    assert refuted.outcome is Outcome.CERTIFIED_FALSE
    flipped = verifier._flipped(refuted, 1, "<=")
    assert flipped.outcome is Outcome.CERTIFIED_TRUE
    assert flipped == evaluate_with_escalation(Rat(Fraction(5, 4)), 1, ">")
    undecided = evaluate_with_escalation(PI - PI, 0, "<=", 8, 8)
    assert undecided.outcome is Outcome.INCONCLUSIVE and undecided.note
    assert verifier._flipped(undecided, 0, "<=") is undecided
    assert evaluate_with_escalation(PI - PI, 0, ">", 8, 8) == undecided


# ---------------------------------------------------------------------------
# Unequal weights


def test_unequal_report_structure(report_s3u):
    assert report_s3u.verdict == VERDICT_NO_IDENTITY
    assert len(report_s3u.constants) == 49
    assert all(
        rec.decision.outcome is Outcome.CERTIFIED_TRUE for rec in report_s3u.constants
    )
    assert len(report_s3u.candidates) == 13
    assert report_s3u.tables == {}
    assert report_s3u.fixtures_used == ()
    statuses = {c.status for c in report_s3u.candidates}
    assert statuses == {ELIMINATED_BY_BOUND}
    families = [c for c in report_s3u.candidates if c.k1 is None]
    concrete = [c for c in report_s3u.candidates if c.k1 is not None]
    assert len(families) == 7 and len(concrete) == 6
    assert {(c.d, c.k1, c.k2) for c in concrete} == {
        (D, 4, 2) for D in (5, 8, 13, 17, 29, 37)
    }
    assert len([c for c in report_s3u.candidates if c.d == 5]) == 2
    assert any("270 pairs" in note for note in report_s3u.interpretations)


def test_unequal_accepts_appended_discriminant(report_s3u):
    # Q(sqrt 5) now rides in the default chains; its two rows must be
    # eliminated by bound like every other chain's
    assert report_s3u.verdict == VERDICT_NO_IDENTITY
    assert all(
        rec.decision.outcome is Outcome.CERTIFIED_TRUE for rec in report_s3u.constants
    )
    d5 = [c for c in report_s3u.candidates if c.d == 5]
    assert len(d5) == 2
    assert all(c.status == ELIMINATED_BY_BOUND for c in d5)


def test_unequal_chains_cover_every_small_field(report_s3u):
    # the large-D chain starts at 41; every smaller narrow class number
    # one field, Q(sqrt 5) included, needs a chain of its own
    chained = {c.d for c in report_s3u.candidates if c.d is not None}
    assert chained == {f.discriminant for f in narrow_one_fields(40)}


def test_unequal_verdict_is_precision_independent(report_s3u):
    low = verify_section3_unequal(base_precision=32)
    assert low.verdict == report_s3u.verdict
    assert [c.status for c in low.candidates] == [
        c.status for c in report_s3u.candidates
    ]


def test_fresh_run_is_byte_identical(report_s3u):
    assert verify_section3_unequal().to_json() == report_s3u.to_json()


def test_unequal_rejects_inverted_precisions():
    with pytest.raises(ValueError):
        verify_section3_unequal(base_precision=256, precision_ceiling=128)


# ---------------------------------------------------------------------------
# Equal weights


def test_equal_report_structure(report_s3e):
    families = {c.label: c.status for c in report_s3e.candidates if c.d is None}
    assert families == {
        "equal weights, 2 split or ramified, every field": ELIMINATED_BY_EXACT_IDENTITY,
        "equal weights, 2 inert, k >= 22": ELIMINATED_BY_BOUND,
        "equal weights, 2 inert, D above the per-weight maximum": ELIMINATED_BY_BOUND,
    }
    concrete = [c for c in report_s3e.candidates if c.d is not None]
    assert len(concrete) == 102
    assert all(c.status == ELIMINATED_BY_EXACT_IDENTITY for c in concrete)
    assert all(c.k1 == c.k2 for c in concrete)
    assert any("102 admissible" in note for note in report_s3e.interpretations)


def test_equal_weight_table_interpretations(report_s3e):
    table = report_s3e.tables["table1_interpretations"]
    assert table["columns"] == ["k", "narrow_one_max_d", "all_fundamental_max_d"]
    differing = {row[0]: (row[1], row[2]) for row in table["rows"] if row[1] != row[2]}
    assert differing == {2: (1549, 1565), 8: (61, 93), 16: (13, 21)}
    primary = {row[0]: row[1] for row in table["rows"]}
    assert primary == {
        row[0]: row[1] for row in report_s3e.tables["table1"]["rows"]
    }


@pytest.mark.parametrize("d_limit", [200, 4000, 20000])
def test_wider_reading_boundary_matches_a_linear_scan(d_limit):
    # the section bisects the fundamental inert universe for the first
    # field C(D, k) does not certifiably admit; a walk from the smallest
    # field must stop at the same place.  At d_limit 200 weight 2 admits
    # every field, so its row has no rejected field
    report = verify_section3_equal(d_limit=d_limit)
    alt_column = {
        row[0]: row[2] for row in report.tables["table1_interpretations"]["rows"]
    }
    universe = [D for D in range(13, d_limit + 1, 8) if is_fundamental_discriminant(D)]
    for k in range(2, 22, 2):
        alt_max = reject = None
        for D in universe:
            dec = evaluate_with_escalation(c_equal_expr(D, k), 1, "<=")
            if dec.outcome is not Outcome.CERTIFIED_TRUE:
                reject = D
                break
            alt_max = D
        assert alt_column[k] == alt_max, k
        expected = set()
        if alt_max is not None:
            expected.add(f"table1_alt_k{k}_d{alt_max}_admits")
        if reject is not None:
            expected.add(f"table1_alt_k{k}_d{reject}_exceeds")
        recorded = {
            rec.name
            for rec in report.constants
            if rec.name.startswith(f"table1_alt_k{k}_")
        }
        assert recorded == expected, k
    assert (d_limit == 200) == (alt_column[2] == universe[-1])


def test_equal_weight_smaller_universe_departs_from_golden():
    # the k = 2 sweep runs out of fields below its rejecting field 1597
    report = verify_section3_equal(d_limit=1000)
    assert report.verdict == VERDICT_FAILED
    assert compare_to_golden(report) != []


def test_wider_reading_closes_whenever_the_narrow_one_sweep_does(report_s3e):
    # the fundamental inert universe holds every narrow-one inert field, so
    # the bisection's first rejected field is never past the narrow-one
    # sweep's closing field, and needs no closing rule of its own
    def closing(prefix):
        (name,) = (
            rec.name
            for rec in report_s3e.constants
            if rec.name.startswith(prefix) and rec.name.endswith("_exceeds")
        )
        return int(name[len(prefix) : -len("_exceeds")])

    for k in range(2, 22, 2):
        narrow = closing(f"table1_k{k}_d")
        assert closing(f"table1_alt_k{k}_d") <= narrow <= DEFAULT_D_LIMIT, k
    assert (closing("table1_alt_k2_d"), closing("table1_k2_d")) == (1581, 1597)


# Each sweep's golden maximum at the lowest weight, and the next field of its
# universe: a d_limit anywhere in between ends the universe before the
# sweep's rejecting field, so nothing certifies the fields past it
_UNCLOSED_SWEEPS = [
    ("s3-equal", "table1", inert_one_fields, "table1_k2_d{}", "exceeds"),
    ("s4-inert", "table2", inert_one_fields, "disc_bound_k1_2_k2_2_d{}", "fails"),
    ("s4-noninert", "table3", noninert_one_fields, "disc_bound_k1_2_k2_2_d{}", "fails"),
]


def _golden_gap(table, universe):
    (maximum,) = (row[-1] for row in golden_tables()[table]["rows"] if row[0] == 2)
    following = min(D for D in universe(2 * maximum) if D > maximum)
    return maximum, following


@pytest.mark.parametrize(
    "section, table, universe, name, suffix",
    _UNCLOSED_SWEEPS,
    ids=[s[0] for s in _UNCLOSED_SWEEPS],
)
def test_a_sweep_that_runs_out_of_fields_fails_the_run(
    capsys, section, table, universe, name, suffix
):
    maximum, following = _golden_gap(table, universe)
    for d_limit in (maximum, following - 1):
        code = main(["verify", section, "--d-limit", str(d_limit)])
        assert code == EXIT_FAILURE, d_limit
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == VERDICT_FAILED
        unclosed = [
            (rec["name"], rec["outcome"])
            for rec in report["constants"]
            if rec["name"].endswith("_unclosed")
        ]
        assert unclosed == [(name.format(maximum) + "_unclosed", "CertifiedFalse")]
        assert SURVIVOR in {c["status"] for c in report["candidates"]}
    assert main(["verify", section, "--d-limit", str(following)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == VERDICT_NO_IDENTITY
    names = {rec["name"] for rec in report["constants"]}
    assert f"{name.format(following)}_{suffix}" in names


# ---------------------------------------------------------------------------
# Weight 4 and beyond, inert and split


def test_inert_report_structure(report_s4i):
    counts = Counter(c.status for c in report_s4i.candidates)
    assert counts == Counter(
        {ELIMINATED_BY_DIMENSION: 274, ELIMINATED_BY_BOUND: 3, ELIMINATED_BY_FIXTURE: 1}
    )
    fixture_elim = [c for c in report_s4i.candidates if c.status == ELIMINATED_BY_FIXTURE]
    assert [(c.d, c.k1, c.k2) for c in fixture_elim] == [(13, 2, 2)]
    assert [f["key"] for f in report_s4i.fixtures_used] == [
        "grh_eigenform_product_criterion",
        "ishikawa_weight2_dim",
    ]
    assert set(report_s4i.tables) == {"table2", "table2_interpretations"}


def test_noninert_report_structure(report_s4n):
    triples = sorted(
        (c.d, c.k1, c.k2, c.status) for c in report_s4n.candidates if c.d is not None
    )
    assert triples == [
        (8, 2, 2, ELIMINATED_BY_FIXTURE),
        (8, 2, 4, ELIMINATED_BY_FIXTURE),
        (8, 2, 6, ELIMINATED_BY_FIXTURE),
        (8, 4, 2, ELIMINATED_BY_FIXTURE),
        (8, 4, 4, ELIMINATED_BY_FIXTURE),
        (17, 2, 2, ELIMINATED_BY_DIMENSION),
        (17, 2, 4, ELIMINATED_BY_DIMENSION),
        (41, 2, 2, ELIMINATED_BY_DIMENSION),
        (73, 2, 2, ELIMINATED_BY_DIMENSION),
    ]
    assert [f["key"] for f in report_s4n.fixtures_used] == [
        "grh_eigenform_product_criterion",
        "ishikawa_weight2_dim",
        "magma_dim_d8",
    ]
    assert set(report_s4n.tables) == {"table3", "table3_interpretations"}


def test_cusp_factor_sweep_with_no_surviving_weight():
    # a weight gap certified false at every k1: the weight family fails from
    # k1 = 2, and no window, table or triple follows
    def no_window(*args):
        raise AssertionError("a k2 window was opened")

    run = verifier._Run("unit", 32, 128)
    triples = verifier._cusp_factor_sweep(
        run,
        [13, 17],
        k1_stop=8,
        norm=4,
        weight_gap=lambda k1: Rat(-1),
        pair_bound=no_window,
        table="table2",
        mark=run.mark(),
        weight_note="no weight survives",
        step_certs=no_window,
    )
    assert triples == []
    assert [r.name for r in run.constants] == [
        f"weight_bound_k1_{k1}_fails" for k1 in (2, 4, 6)
    ]
    (family,) = run.candidates
    assert family.status == ELIMINATED_BY_BOUND
    assert family.detail == "weight-only bound fails from k1 = 2 on and keeps decreasing"
    assert family.label == "k1 > 0, every k2 and D"
    assert run.tables == {}


@pytest.mark.parametrize(
    "runner", [verify_section4_inert, verify_section4_noninert, verify_section5]
)
def test_fixture_consumers_fail_loudly_without_facts(runner):
    with pytest.raises(MissingFixtureError):
        runner(fixtures=_EMPTY_FIXTURES)


def _fixtures_without(key):
    doc = json.loads(
        resources.files("eigenprod.data").joinpath("fixtures.json").read_text(encoding="utf-8")
    )
    del doc["facts"][key]
    return Fixtures.from_document(doc, origin="test")


def test_triples_without_weight_4_leave_the_ishikawa_fact_unread():
    run = verifier._Run("unit", 32, 128, _fixtures_without("ishikawa_weight2_dim"))
    verifier._eliminate_triples(run, [(17, 2, 4), (17, 4, 2), (41, 2, 4)])
    assert "ishikawa_weight2_dim" not in run.fixtures_echo
    assert [c.status for c in run.candidates] == [ELIMINATED_BY_DIMENSION] * 3
    assert [r.name for r in run.constants] == ["dim_floor_d17_w6", "dim_floor_d41_w6"]


def test_weight_4_triples_read_the_ishikawa_fact_once(monkeypatch):
    parsed, parse = [], verifier.ishikawa_zero_dim_fields

    def counting(fact):
        parsed.append(fact.key)
        return parse(fact)

    monkeypatch.setattr(verifier, "ishikawa_zero_dim_fields", counting)
    run = verifier._Run("unit", 32, 128, Fixtures.load())
    verifier._eliminate_triples(run, [(13, 2, 2), (17, 2, 4), (17, 2, 2), (41, 2, 2)])
    assert parsed == ["ishikawa_weight2_dim"]
    assert [f["key"] for f in run.report().fixtures_used].count("ishikawa_weight2_dim") == 1
    assert [c.status for c in run.candidates] == [ELIMINATED_BY_FIXTURE] + [
        ELIMINATED_BY_DIMENSION
    ] * 3


def test_weight_4_triple_without_the_ishikawa_fact_fails_loudly():
    run = verifier._Run("unit", 32, 128, _fixtures_without("ishikawa_weight2_dim"))
    with pytest.raises(MissingFixtureError) as info:
        verifier._eliminate_triples(run, [(17, 2, 4), (41, 2, 2)])
    assert info.value.key == "ishikawa_weight2_dim"
    # the triple before the first weight-4 one was disposed of first
    assert [(c.d, c.k1, c.k2) for c in run.candidates] == [(17, 2, 4)]


def test_explicit_fixtures_reproduce_builtin_run(report_s4n):
    report = verify_section4_noninert(fixtures=Fixtures.load())
    assert report.to_json() == report_s4n.to_json()


# ---------------------------------------------------------------------------
# Higher degree fields


def test_degree_report_structure(report_s5):
    assert [f["key"] for f in report_s5.fixtures_used] == [
        "takeuchi_disc_bound",
        "voight_min_totally_real_disc",
    ]
    assert set(report_s5.tables) == {"degree3_grid", "degree4_grid"}
    names = {rec.name for rec in report_s5.constants}
    assert {
        "degree3_min_window_low",
        "degree3_min_window_high",
        "degree4_min_window_low",
        "degree4_min_window_high",
        "degree5_contradiction",
        "degree6_paired",
    } <= names
    assert any("(k2, k1) = (2, 8)" in note for note in report_s5.interpretations)
    assert any("(k2, k1) = (2, 4)" in note for note in report_s5.interpretations)


def test_degree_grid_rows_bracket_their_windows(report_s5):
    # each grid row carries floor/ceil decimal strings of the enclosure
    for table in ("degree3_grid", "degree4_grid"):
        for k2, k1, lo, hi in report_s5.tables[table]["rows"]:
            assert k2 < k1
            assert Fraction(lo) <= Fraction(hi)


def test_degree_families_degrade_to_survivors_at_low_ceiling():
    report = verify_section5(base_precision=8, precision_ceiling=8)
    assert report.verdict == VERDICT_INCONCLUSIVE
    undecided = [
        rec.name
        for rec in report.constants
        if rec.decision.outcome is Outcome.INCONCLUSIVE
    ]
    assert undecided == [
        "degree5_contradiction",
        "degree3_min_window_low",
        "degree3_min_window_high",
        "degree4_min_window_low",
        "degree4_min_window_high",
    ]
    families = {c.label: c.status for c in report.candidates if c.d is None}
    assert families["degree n >= 6, all weights"] == ELIMINATED_BY_BOUND
    assert families["degree n = 5, all weights"] == SURVIVOR
    assert families["degree n = 3, all weights"] == SURVIVOR
    assert families["degree n = 4, all weights"] == SURVIVOR
    assert "undecided at ceiling 8" in next(
        rec.decision.note
        for rec in report.constants
        if rec.name == "degree5_contradiction"
    )


# ---------------------------------------------------------------------------
# Exact records


@pytest.mark.parametrize(
    "call",
    [
        lambda run: run.exact("p", 0.1, 0, ">"),
        lambda run: run.exact("p", 1, 0.1, ">"),
        lambda run: fraction_str(0.1),
        lambda run: run.record("p", ">", 0.1, evaluate_with_escalation(Rat(1), 0, ">")),
    ],
    ids=["exact-value", "exact-threshold", "fraction-str", "record-threshold"],
)
def test_floats_rejected_at_the_exact_recording_boundary(call):
    # 0.1 would be recorded as 3602879701896397/36028797018963968, a value
    # no caller wrote; nothing is recorded
    run = verifier._Run("x", 128, 1024)
    with pytest.raises(TypeError):
        call(run)
    assert run.constants == []


# ---------------------------------------------------------------------------
# The family rule: a family is the span of records since its mark, eliminated
# exactly when every one of them is CertifiedTrue


def _family_status(span, ceiling=128, before=None):
    run = verifier._Run("unit", 8, ceiling)
    if before is not None:
        before(run)
    mark = run.mark()
    run.check("pi_above_3", PI, 3, ">")
    span(run)
    run.family(mark, "unit family", label="unit")
    (family,) = run.candidates
    return family.status, run.constants[-1]


def test_family_survives_a_signed_check_decided_false():
    status, record = _family_status(
        lambda run: run.check_signed("three_at_most_one", Rat(3), 1, "<=")
    )
    # the decided-false sweep end is recorded as its true flipped certificate
    assert (record.name, record.relation) == ("three_at_most_one_fails", ">")
    assert record.decision.outcome is Outcome.CERTIFIED_TRUE
    assert status == ELIMINATED_BY_BOUND


@pytest.mark.parametrize(
    "ceiling, span, outcome",
    [
        (
            128,
            lambda run: run.check("three_below_one", Rat(3), 1, "<"),
            Outcome.CERTIFIED_FALSE,
        ),
        (
            128,
            lambda run: run.exact("three_below_one", 3, 1, "<"),
            Outcome.CERTIFIED_FALSE,
        ),
        (
            8,
            lambda run: run.check("pi_above_3_14159", PI, Fraction(314159, 10**5), ">"),
            Outcome.INCONCLUSIVE,
        ),
    ],
    ids=["check-false", "exact-false", "inconclusive-at-8-bits"],
)
def test_family_falls_to_a_record_that_does_not_hold(ceiling, span, outcome):
    status, record = _family_status(span, ceiling)
    assert record.decision.outcome is outcome
    assert status == SURVIVOR


def test_family_ignores_records_before_its_mark():
    status, _ = _family_status(
        lambda run: None,
        before=lambda run: run.exact("three_below_one", 3, 1, "<"),
    )
    assert status == ELIMINATED_BY_BOUND


# A sweep walks to its first rejection, and a family over a sweep that runs
# out before one survives


def _sweep(xs):
    # x <= 3 admits 1, 2 and 3 and is first rejected at 4
    run = verifier._Run("unit", 32, 128)
    mark = run.mark()
    admitted = run.sweep("x_at_most_3_x", xs, Rat, 3, "<=")
    run.family(mark, "unit family", label="unit")
    (family,) = run.candidates
    return admitted, [(rec.name, rec.decision.outcome) for rec in run.constants], family


def test_sweep_stops_at_its_closing_certificate():
    admitted, records, family = _sweep(range(1, 7))
    assert admitted == [1, 2, 3]
    assert records == [
        ("x_at_most_3_x1_holds", Outcome.CERTIFIED_TRUE),
        ("x_at_most_3_x2_holds", Outcome.CERTIFIED_TRUE),
        ("x_at_most_3_x3_holds", Outcome.CERTIFIED_TRUE),
        ("x_at_most_3_x4_fails", Outcome.CERTIFIED_TRUE),
    ]
    assert family.status == ELIMINATED_BY_BOUND


@pytest.mark.parametrize(
    "xs, last", [((1, 2, 3), "3"), ((), "none")], ids=["runs-out", "empty"]
)
def test_sweep_without_a_rejection_fails_its_family(xs, last):
    admitted, records, family = _sweep(xs)
    assert admitted == list(xs)
    assert records[-1] == (f"x_at_most_3_x{last}_unclosed", Outcome.CERTIFIED_FALSE)
    assert len(records) == len(xs) + 1
    assert family.status == SURVIVOR


def test_takeuchi_trees_equal_their_inline_spellings():
    # equal trees share enclosure memo entries, so the helper must build
    # exactly the trees section 5 once spelled out by hand
    a, b = takeuchi_constants(Fixtures.load().get("takeuchi_disc_bound"))
    assert _takeuchi(a, 1, 1, 6, b) == Pow(Rat(a) / PI, 6) * Exp(Rat(-b))
    assert _takeuchi(a, 2, 1, 5, b) == Pow(Rat(2 * a) / PI, 5) * Exp(Rat(-b))
    assert _takeuchi(a, 6, 3, 2) == Pow(Rat(6 * a) / Pow(PI, 3), 2)
    assert _takeuchi(a, 180, 5, 2) == Pow(Rat(180 * a) / Pow(PI, 5), 2)
    for c, j, m in ((6, 3, 12), (180, 5, 10)):
        pairing = Pow(Rat(c * a) / Pow(PI, j), m) * Exp(Rat(-2 * b))
        assert _takeuchi(a, c, j, m, 2 * b) == pairing


def test_degree_trees_equal_their_inline_spellings():
    # the same memo-key argument for the s5 base d k2^n / (2 pi)^n, at the
    # six places section 5 once spelled it out by hand
    fact = Fixtures.load().get("voight_min_totally_real_disc")
    d3, d4, d5 = (voight_min_disc(fact, n) for n in (3, 4, 5))
    for n, d in ((3, d3), (4, d4)):
        for k2 in range(2, 16, 2):
            base = Rat(d * k2**n) / Pow(Rat(2) * PI, n)
            assert _degree_base(n, d, k2) == base
            point = Pow(base, 8) / Pow(Zeta(2), 2 * n)
            assert _degree_point(n, d, k2, k2 + 8) == point
    disc_floor = Rat(d5 * 32) / Pow(Rat(2) * PI, 5)
    assert _degree_base(5, d5, 2) == disc_floor
    assert _degree_point(5, d5, 2, 4) == Pow(disc_floor, 2) / Pow(Zeta(2), 10)
    assert _degree_base(3, d3, 4) == Rat(d3 * 64) / Pow(Rat(2) * PI, 3)
    assert _degree_base(4, d4, 4) == Rat(d4 * 256) / Pow(Rat(2) * PI, 4)


def test_degree_rejects_small_n_max():
    with pytest.raises(ValueError):
        verify_section5(n_max=5)


def _eigenprod_caches():
    caches = []
    for name, module in sorted(sys.modules.items()):
        if name != "eigenprod" and not name.startswith("eigenprod."):
            continue
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == name:
                caches.extend(v for v in vars(obj).values() if hasattr(v, "cache_clear"))
            elif hasattr(obj, "cache_clear"):
                caches.append(obj)
    return list({id(c): c for c in caches}.values())


# the memoised tree builders of the verifier, by name
_BUILDERS = (
    "_weight_factor",
    "c_equal_expr",
    "_gamma_growth",
    "_weight_only_bound",
    "_pair_bound",
    "_pair_bound_split",
    "_degree_base",
    "_degree_point",
)


def _builder_caches():
    return {
        name: obj
        for name, obj in vars(verifier).items()
        if hasattr(obj, "cache_info") and obj.__module__ == verifier.__name__
    }


# each case keeps the id it had when the list also held the three trees
# with no argument (args0, args2 and args10), now module constants
@pytest.mark.parametrize(
    "name, args",
    [
        pytest.param("_weight_factor", (13,), id="_weight_factor-args1"),
        pytest.param("c_equal_expr", (13, 20), id="c_equal_expr-args3"),
        pytest.param("_gamma_growth", (Rat(3), 6), id="_gamma_growth-args4"),
        pytest.param("_weight_only_bound", (6,), id="_weight_only_bound-args5"),
        pytest.param("_pair_bound", (6, 4), id="_pair_bound-args6"),
        pytest.param("_pair_bound_split", (6,), id="_pair_bound_split-args7"),
        pytest.param("_degree_base", (3, 49, 4), id="_degree_base-args8"),
        pytest.param("_degree_point", (3, 49, 4, 10), id="_degree_point-args9"),
    ],
)
def test_builder_returns_the_same_tree_object(name, args):
    builder = getattr(verifier, name)
    first = builder(*args)
    assert builder(*args) is first
    # a tree built afresh is equal, so memoising changes no memo key
    assert builder.__wrapped__(*args) == first


def _subtrees_equal_to(tree, target):
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node == target:
            found.append(node)
        else:
            stack.extend(arg for arg in node.args if isinstance(arg, interval.Expr))
    return found


def test_constant_trees_are_shared_by_identity(monkeypatch):
    # the trees with no argument are module constants, so every tree that
    # holds one holds that object and its kept enclosures
    probed = []
    probe = verifier._Run.probe

    def recording_probe(run, expr, threshold, relation):
        probed.append(expr)
        return probe(run, expr, threshold, relation)

    monkeypatch.setattr(verifier._Run, "probe", recording_probe)
    verify_section3_unequal()
    holders = {
        "_FOUR_PI_SQ": [verifier._weight_factor(13), *probed],
        "_EQUAL_FRONT": [c_equal_expr(13, 20), c_equal_expr(1549, 2)],
        "_FRONT_CONSTANT": probed,
    }
    for name, trees in holders.items():
        constant = getattr(verifier, name)
        found = [node for tree in trees for node in _subtrees_equal_to(tree, constant)]
        assert found, name
        assert all(node is constant for node in found), name


def test_verify_all_calls_every_operator_and_builds_every_kind(monkeypatch):
    # every operator method Expr defines is called, and every node kind is
    # built or held by a node built, in a default `verify all` from empty
    # builder memos: a form no command uses has no place in the layer
    called, built = set(), set()

    def counted(name, method):
        def counted_method(*args):
            called.add(name)
            return method(*args)

        return counted_method

    operators = [
        name
        for name, method in vars(interval.Expr).items()
        if callable(method)
        and (name in vars(operator) or name.replace("__r", "__", 1) in vars(operator))
    ]
    for name in operators:
        monkeypatch.setattr(interval.Expr, name, counted(name, getattr(interval.Expr, name)))
    init = interval.Expr.__init__

    def counted_init(node, *args):
        built.add(type(node))
        built.update(type(arg) for arg in args if isinstance(arg, interval.Expr))
        init(node, *args)

    monkeypatch.setattr(interval.Expr, "__init__", counted_init)
    for builder in _builder_caches().values():
        builder.cache_clear()
    assert main(["verify", "all"]) == 0
    kinds = {
        kind
        for kind in vars(interval).values()
        if isinstance(kind, type)
        and issubclass(kind, interval.Expr)
        and not kind.__subclasses__()
    }
    assert len(operators) >= 5
    assert sorted(set(operators) - called) == []
    assert len(kinds) == 12
    assert sorted(kind.__name__ for kind in kinds - built) == []


def test_repeated_sections_build_no_new_trees():
    assert set(_builder_caches()) == set(_BUILDERS)
    verify_section4_inert()
    verify_section5()
    before = {name: f.cache_info().misses for name, f in _builder_caches().items()}
    verify_section4_inert()
    verify_section5()
    after = {name: f.cache_info().misses for name, f in _builder_caches().items()}
    assert after == before


def test_repeated_sections_enclose_no_builder_tree_twice(monkeypatch):
    # a memoised tree keeps its enclosures for as long as the builder memo
    # keeps the tree, so a second run computes no enclosure of its nodes
    computed, built = [], []

    def counted(enclose):
        def counted_enclose(node, precision):
            computed.append((node, precision))
            return enclose(node, precision)

        return counted_enclose

    def kept(builder):
        def kept_builder(*args):
            built.append(builder(*args))
            return built[-1]

        return kept_builder

    for kind in vars(interval).values():
        if isinstance(kind, type) and issubclass(kind, interval._Node):
            if "_enclose" in vars(kind):
                monkeypatch.setattr(kind, "_enclose", counted(kind._enclose))
    for name in _BUILDERS:
        monkeypatch.setattr(verifier, name, kept(getattr(verifier, name)))
    verify_section4_inert()
    verify_section5()
    computed.clear()
    verify_section4_inert()
    verify_section5()
    memoised, stack = {}, built
    while stack:
        node = stack.pop()
        if isinstance(node, interval._Node) and id(node) not in memoised:
            memoised[id(node)] = node
            stack.extend(node.args)
    assert len(memoised) > 500
    assert [(node, p) for node, p in computed if id(node) in memoised] == []


def test_builders_capture_no_fixture_data():
    # s5 with other Takeuchi constants, after a default run has filled
    # every builder memo: the report must be the one a cold process gives
    doc = json.loads(
        resources.files("eigenprod.data").joinpath("fixtures.json").read_text(encoding="utf-8")
    )
    doc["facts"]["takeuchi_disc_bound"]["data"] = {"a": "30", "b": "8"}
    changed = Fixtures.from_document(doc)
    default = verify_section5().to_json()
    warm = verify_section5(fixtures=changed).to_json()
    for cache in _eigenprod_caches():
        cache.cache_clear()
    cold = verify_section5(fixtures=changed)
    assert warm == cold.to_json() != default
    # a / pi at a = 30
    floor = next(rec for rec in cold.constants if rec.name == "disc_ratio_floor")
    assert subset_of(floor.decision.enclosure, Fraction(954, 100), Fraction(955, 100))


def test_verify_memory_retained_from_cold_caches():
    # what the caches keep after a cold run of the five sections, run on
    # its own: 511 KiB without the builder memos, 834 KiB with them, and
    # 1002 KiB once the nodes of the memoised trees and of the module
    # constants keep their enclosures (898 KiB in the full suite, where
    # earlier tests have allocated what the run shares).
    # Memoising six more builders (_disc_bound, _inert_middle,
    # _equal_middle_expr, c_unequal_expr, _takeuchi, ramare_bound) kept
    # 1422 KiB for no clear gain in a repeated run.  Kept enclosures took
    # 1208 KiB with (108/pi^6)^2 built afresh in every single-weight tree
    # and each enclosure held in a (precision, enclosure) tuple, 1100 KiB
    # with the tuple alone.  The bound leaves 12% headroom over 1002 KiB
    for cache in _eigenprod_caches():
        cache.cache_clear()
    tracemalloc.start()
    try:
        fixtures = Fixtures.load()
        verify_section3_unequal()
        verify_section3_equal()
        verify_section4_inert(fixtures=fixtures)
        verify_section4_noninert(fixtures=fixtures)
        verify_section5(fixtures=fixtures)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1.1 * 2**20, retained


def test_scan_memory_peak_from_cold_caches():
    # the power-sum rows keep their sums, not the kernel's shared table of
    # offset powers; keeping each row's powers took the peak to about 2.8 MiB
    for cache in _eigenprod_caches():
        cache.cache_clear()
    tracemalloc.start()
    try:
        assert exact_identity_scan(1000, 20) == [(5, 2, 2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak


def _count_kernel_passes(monkeypatch):
    # each pass of the power-sum kernel as (modulus, targets), from empty
    # zeta memos
    passes = []
    kernel = exact._fill_power_sum_rows

    def counted(targets, modulus=0):
        passes.append((modulus, dict(targets)))
        return kernel(targets, modulus)

    dedekind_zeta_neg.cache_clear()
    zeta_residues.cache_clear()
    monkeypatch.setattr(exact, "_fill_power_sum_rows", counted)
    return passes


def test_equal_weight_section_writes_each_power_sum_row_once(monkeypatch):
    # the section asks for every admissible field's residue row through its
    # largest 2k in one kernel pass before the residuals read them; taking
    # the weights bottom up, one row at a time, wrote 55 rows 102 times.  No
    # residue vanishes, so no exact row is built
    passes = _count_kernel_passes(monkeypatch)
    verify_section3_equal()
    assert [(modulus, len(targets)) for modulus, targets in passes] == [
        (ZETA_MODULUS, 55)
    ]


def test_scan_writes_each_power_sum_row_once(monkeypatch):
    # the scan asks for every field's residue row through its heaviest
    # weight in one kernel pass; the residues then only read the rows.  The
    # one exact row is that of D = 5, whose residual (5, 2, 2) does vanish
    passes = _count_kernel_passes(monkeypatch)
    assert exact_identity_scan(1000, 20) == [(5, 2, 2)]
    assert [(modulus, len(targets)) for modulus, targets in passes] == [
        (ZETA_MODULUS, 75),
        (0, 1),
    ]
    assert passes[1][1].keys() == {5}


def test_warm_scan_builds_no_residue(monkeypatch):
    # a repeated scan reads the memoised residues: no kernel pass, and no
    # weight's dot product, each of which asks for that weight's residues
    exact_identity_scan(1000, 20)
    calls = Counter()
    for name in ("_fill_power_sum_rows", "_weight_residues"):
        real = getattr(exact, name)
        monkeypatch.setattr(
            exact, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args)
        )
    assert exact_identity_scan(1000, 20) == [(5, 2, 2)]
    assert calls == {}


def test_results_equal_from_cold_and_warm_caches():
    # a cache key that dropped an argument would show here as a warm
    # result that differs from the cold one.  From an 8-bit base section 3
    # decides at 8 bits and section 5 escalates ten certificates to 16, so
    # one run mixes precisions in the enclosure memo
    def run():
        low = {"base_precision": 8, "precision_ceiling": 1024}
        return (
            exact_identity_scan(200, 16),
            verify_sqrt5_identity(12),
            verify_section3_unequal(**low).to_json(),
            verify_section5(**low).to_json(),
        )

    caches = _eigenprod_caches()
    names = {c.__qualname__ for c in caches}
    assert {
        "factor_ideal",
        "dedekind_zeta_neg",
        "is_fundamental_discriminant",
        "_enclose_memo",
        *_BUILDERS,
    } <= names
    for cache in caches:
        cache.cache_clear()
    cold = run()
    warm = run()
    for cache in caches:
        cache.cache_clear()
    assert cold == warm == run()
    assert cold[0] == [(5, 2, 2)] and cold[1].passed

"""Report serialization: directed decimals, verdict resolution, tables."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenprod import (
    CandidateRecord,
    CertifiedReal,
    CheckRecord,
    Decision,
    Outcome,
    VerificationReport,
    compare_to_golden,
    golden_tables,
    verify_section4_inert,
    verify_section5,
)
from eigenprod.report import (
    ELIMINATED_BY_BOUND,
    SURVIVOR,
    VERDICT_FAILED,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_IDENTITY,
    fraction_str,
    pair_decimal,
    tables_csv,
    tables_markdown,
)
from oracles import _directed_decimal, format_decimal, report_reference


def _decision(outcome: Outcome) -> Decision:
    return Decision(outcome, CertifiedReal(Fraction(1), Fraction(2), 64))


def _check_reference(rec: CheckRecord) -> dict:
    return report_reference(VerificationReport("s", constants=(rec,)))["constants"][0]


def _candidate_reference(rec: CandidateRecord) -> dict:
    return report_reference(VerificationReport("s", candidates=(rec,)))["candidates"][0]


# ---------------------------------------------------------------------------
# Formatting


def test_format_decimal_directed():
    third = Fraction(1, 3)
    assert format_decimal(third, 6, "floor") == "0.333333"
    assert format_decimal(third, 6, "ceil") == "0.333334"
    assert format_decimal(-third, 6, "floor") == "-0.333334"
    assert format_decimal(-third, 6, "ceil") == "-0.333333"


def test_format_decimal_exact_values_round_trip():
    assert format_decimal(Fraction(5, 4), 3, "floor") == "1.250"
    assert format_decimal(Fraction(5, 4), 3, "ceil") == "1.250"
    assert format_decimal(Fraction(-7), 2, "ceil") == "-7.00"
    assert format_decimal(2, 4) == "2.0000"


def test_format_decimal_rejects_a_float():
    # 0.1 would be written from 3602879701896397/36028797018963968, a value
    # no caller wrote
    with pytest.raises(TypeError):
        format_decimal(0.1, 5)


def test_format_decimal_brackets_interval():
    # floor(lo) <= lo and hi <= ceil(hi) must hold for every width
    x = Fraction(355, 113)
    lo = Fraction(format_decimal(x, 8, "floor"))
    hi = Fraction(format_decimal(x, 8, "ceil"))
    assert lo <= x <= hi
    assert hi - lo == Fraction(1, 10**8)


def test_format_decimal_rejects_unknown_rounding():
    with pytest.raises(ValueError, match="unknown rounding"):
        format_decimal(Fraction(1), 4, "nearest")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    num=st.integers(min_value=-(2**520), max_value=2**520),
    den=st.integers(min_value=1, max_value=2**520),
    rounding=st.sampled_from(["floor", "ceil"]),
    digits=st.sampled_from([1, 2, 12, 30, 40]),
)
@example(num=0, den=1, rounding="floor", digits=30)
@example(num=0, den=7, rounding="ceil", digits=30)
@example(num=-5, den=1, rounding="ceil", digits=30)
@example(num=-(2**501) + 1, den=3, rounding="floor", digits=30)
@example(num=2**501 - 1, den=2**501 + 1, rounding="ceil", digits=30)
@example(num=-1, den=2**505, rounding="ceil", digits=30)
@example(num=-1, den=3, rounding="floor", digits=30)
@example(num=-2, den=3, rounding="ceil", digits=1)
@example(num=0, den=5, rounding="ceil", digits=1)
@example(num=-1, den=30, rounding="ceil", digits=1)
@example(num=3, den=700, rounding="floor", digits=12)
@example(num=-3, den=700, rounding="ceil", digits=12)
@example(num=7, den=3, rounding="floor", digits=1)
def test_pair_decimal_matches_format_decimal(num, den, rounding, digits):
    # the integer-pair path the reports use, against the Fraction path and
    # an independent floor/ceil oracle, on unreduced pairs, endpoints past
    # the 501 bits of a default run, the 12 digits of the degree grid, the
    # sign and "0." of values in (-1, 0) and fractions with leading zeros
    text = pair_decimal(num, den, digits, rounding)
    value = Fraction(num, den)
    assert text == format_decimal(value, digits, rounding)
    direction = math.floor if rounding == "floor" else math.ceil
    assert text == _directed_decimal(value, direction, digits)
    ulp = Fraction(1, 10**digits)
    if rounding == "floor":
        assert Fraction(text) <= value < Fraction(text) + ulp
    else:
        assert Fraction(text) - ulp < value <= Fraction(text)


def test_fraction_str():
    assert fraction_str(Fraction(1, 30)) == "1/30"
    assert fraction_str(Fraction(7)) == "7"
    assert fraction_str(-2) == "-2"


def test_certified_real_json_is_outward_rounded():
    enc = CertifiedReal(Fraction(1, 3), Fraction(2, 3), 96)
    rec = CheckRecord("sample", ">", Fraction(0), Decision(Outcome.CERTIFIED_TRUE, enc))
    blob = _check_reference(rec)["enclosure"]
    assert Fraction(blob["lo"]) <= enc.lo
    assert Fraction(blob["hi"]) >= enc.hi
    assert blob["precision"] == 96


# ---------------------------------------------------------------------------
# Records


def test_check_record_json():
    rec = CheckRecord("sample", ">", Fraction(3, 2), _decision(Outcome.CERTIFIED_TRUE))
    blob = _check_reference(rec)
    assert blob["name"] == "sample"
    assert blob["relation"] == ">"
    assert blob["threshold"] == "3/2"
    assert blob["outcome"] == "CertifiedTrue"
    assert blob["precision"] == 64
    assert blob["enclosure"]["precision"] == 64
    assert blob["note"] == ""


def test_candidate_record_json():
    rec = CandidateRecord(ELIMINATED_BY_BOUND, "why", d=8, k1=4, k2=2)
    assert _candidate_reference(rec) == {
        "D": 8,
        "k1": 4,
        "k2": 2,
        "label": "",
        "status": "EliminatedByBound",
        "detail": "why",
    }
    family = CandidateRecord(SURVIVOR, "open", label="family")
    assert _candidate_reference(family)["D"] is None


# ---------------------------------------------------------------------------
# Verdicts


def _check(outcome: Outcome, name: str = "a") -> CheckRecord:
    return CheckRecord(name, ">", Fraction(0), _decision(outcome))


def test_resolve_verdict_all_certified():
    report = VerificationReport(
        "s",
        candidates=(CandidateRecord(ELIMINATED_BY_BOUND, "gone", d=5),),
        constants=(_check(Outcome.CERTIFIED_TRUE),),
    )
    assert report.verdict == VERDICT_NO_IDENTITY


def test_resolve_verdict_inconclusive_dominates():
    report = VerificationReport(
        "s",
        constants=(
            _check(Outcome.INCONCLUSIVE),
            _check(Outcome.CERTIFIED_FALSE, "b"),
        ),
    )
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.inconclusive == 1


def test_resolve_verdict_failure_routes():
    false_report = VerificationReport(
        "s", constants=(_check(Outcome.CERTIFIED_FALSE),)
    )
    assert false_report.verdict == VERDICT_FAILED

    survivor_report = VerificationReport(
        "s", candidates=(CandidateRecord(SURVIVOR, "open", d=5),)
    )
    assert survivor_report.verdict == VERDICT_FAILED
    assert len(survivor_report.survivors) == 1


def test_report_json_is_canonical():
    report = VerificationReport("s", tables={"t": {"columns": ["a"], "rows": [[1]]}})
    text = report.to_json()
    assert text.endswith("\n")
    assert text == report.to_json()
    blob = json.loads(text)
    assert blob["verdict"] == VERDICT_NO_IDENTITY
    assert set(blob) == {
        "section",
        "verdict",
        "candidates",
        "tables",
        "constants",
        "fixtures",
        "interpretations",
        "inconclusive",
    }


# ---------------------------------------------------------------------------
# Tables


def _table_report() -> VerificationReport:
    return VerificationReport(
        "s",
        tables={
            "t2": {"columns": ["k", "max"], "rows": [[2, 38], [4, None]]},
            "t1": {"columns": ["x"], "rows": [[1]]},
        },
    )


def test_tables_markdown_layout():
    text = tables_markdown(_table_report())
    lines = text.splitlines()
    assert lines[0] == "## t1"
    assert "## t2" in lines
    assert "| k | max |" in lines
    assert "| 4 | - |" in lines


def test_tables_csv_layout():
    text = tables_csv(_table_report())
    assert "t2\nk,max\n2,38\n4,\n" in text
    assert text.startswith("t1\nx\n1\n")


# ---------------------------------------------------------------------------
# Golden baselines


def test_golden_tables_present():
    golden = golden_tables()
    assert {"table1", "table2", "table3"} <= set(golden)
    for name in ("table1", "table2", "table3"):
        assert golden[name]["columns"] and golden[name]["rows"]


def _golden_table(golden: dict, name: str, rows=None) -> dict:
    # the golden table's columns over its rows, or over the rows given
    rows = golden[name]["rows"] if rows is None else rows
    return {"columns": golden[name]["columns"], "rows": [list(r) for r in rows]}


def test_compare_to_golden_detects_mismatch():
    golden = golden_tables()
    table1 = _golden_table(golden, "table1")
    assert compare_to_golden(VerificationReport("s", tables={"table1": table1})) == []

    changed = _golden_table(golden, "table1", [[2, 999], *golden["table1"]["rows"][1:]])
    messages = compare_to_golden(VerificationReport("s", tables={"table1": changed}))
    assert any("not in golden table" in m for m in messages)
    assert any("not reproduced" in m for m in messages)

    wrong = {"columns": ["wrong"], "rows": [[1]]}
    report = VerificationReport("s", tables={"table1": wrong})
    assert any("columns" in m for m in compare_to_golden(report))


def test_compare_to_golden_reports_each_table():
    # a mismatch in one table must not hide a row-order diff in the next
    golden = golden_tables()
    rows1, rows2 = golden["table1"]["rows"], golden["table2"]["rows"]
    tables = {
        "table1": _golden_table(golden, "table1", [[2, 999], *rows1[1:]]),
        "table2": _golden_table(golden, "table2", rows2[::-1]),
    }
    messages = compare_to_golden(VerificationReport("s", tables=tables))
    assert [m for m in messages if m.startswith("table2")] == [
        "table2: row order differs from golden table"
    ]
    assert len([m for m in messages if m.startswith("table1")]) == 2


def test_compare_to_golden_ignores_unbaselined_tables():
    table = {"columns": ["x"], "rows": [[1]]}
    report = VerificationReport("s", tables={"degree3_grid": table})
    assert compare_to_golden(report) == []


# ---------------------------------------------------------------------------
# Report writer against its reference: the oracle's dict, dumped by the
# stdlib

_texts = st.text(max_size=8) | st.sampled_from(
    ["", '"', "\\", 'a"b\\c', "\x00\x1f\n\t\r\x7f", "\u00e9\u2603\U0001d11e", "\ud800"]
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**600), max_value=2**600)
    | _texts
)
_documents = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=24,
)


def _reference_text(report: VerificationReport) -> str:
    return json.dumps(report_reference(report), sort_keys=True, indent=2) + "\n"


def test_to_json_matches_the_reference_on_verifier_reports(default_reports):
    reports = list(default_reports.values()) + [
        verify_section4_inert(base_precision=1024),
        verify_section5(base_precision=1024),
        # the failure path: undecided certificates and surviving families
        verify_section5(base_precision=8, precision_ceiling=8),
    ]
    for report in reports:
        assert report.to_json() == _reference_text(report), report.section


_rationals = st.integers(-(2**200), 2**200) | st.fractions(
    min_value=-(2**70), max_value=2**70, max_denominator=2**70
)


@st.composite
def _enclosures(draw) -> CertifiedReal:
    # negative, zero-width and precision-0 (exact) enclosures included
    lo = draw(_rationals)
    hi = draw(st.just(lo) | _rationals.filter(lambda x: x >= lo))
    return CertifiedReal(lo, hi, draw(st.sampled_from([0, 8, 128, 4096])))


_check_records = st.builds(
    CheckRecord,
    name=_texts,
    relation=st.sampled_from([">", ">=", "<", "<=", "="]) | _texts,
    threshold=_rationals,
    decision=st.builds(
        Decision, st.sampled_from(list(Outcome)), _enclosures(), note=_texts
    ),
)
_optional_ints = st.none() | st.integers() | st.integers(-(2**80), 2**80)
_candidate_records = st.builds(
    CandidateRecord,
    status=st.sampled_from([ELIMINATED_BY_BOUND, SURVIVOR]) | _texts,
    detail=_texts,
    d=_optional_ints,
    k1=_optional_ints,
    k2=_optional_ints,
    label=_texts,
)
_reports = st.builds(
    VerificationReport,
    section=_texts,
    candidates=st.lists(_candidate_records, max_size=3).map(tuple),
    tables=st.dictionaries(_texts, _documents, max_size=3),
    constants=st.lists(_check_records, max_size=3).map(tuple),
    fixtures_used=st.lists(
        st.dictionaries(_texts, _documents, max_size=3), max_size=2
    ).map(tuple),
    interpretations=st.lists(_texts, max_size=3).map(tuple),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_reports)
@example(VerificationReport(""))
@example(
    VerificationReport(
        "\u00e9\"\\",
        candidates=(CandidateRecord(SURVIVOR, "\x00", k2=0, label="\ud800"),),
        constants=(
            CheckRecord(
                "\n",
                "=",
                Fraction(-7, 3),
                Decision(
                    Outcome.INCONCLUSIVE,
                    CertifiedReal(Fraction(-1, 3), Fraction(-1, 3), 0),
                    '"\\\u2603',
                ),
            ),
        ),
    )
)
def test_to_json_matches_the_reference_on_built_reports(report):
    assert report.to_json() == _reference_text(report)


_failures = st.just(CandidateRecord(SURVIVOR, "open", d=5)) | st.builds(
    CheckRecord,
    name=_texts,
    relation=st.just(">"),
    threshold=_rationals,
    decision=st.builds(Decision, st.just(Outcome.CERTIFIED_FALSE), _enclosures()),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_reports, _failures)
def test_survivor_or_false_certificate_fails_whatever_else_the_report_holds(
    report, failure
):
    # a report built with a survivor or a decided-false check reads
    # "verification failed", unless an undecided check makes it
    # inconclusive; the report it was built from keeps its own verdict
    before = report.verdict
    if isinstance(failure, CandidateRecord):
        failed = report._replace(candidates=(*report.candidates, failure))
    else:
        failed = report._replace(constants=(failure, *report.constants))
    expected = VERDICT_INCONCLUSIVE if report.inconclusive else VERDICT_FAILED
    assert failed.verdict == expected
    assert json.loads(failed.to_json())["verdict"] == expected
    assert report.verdict == before

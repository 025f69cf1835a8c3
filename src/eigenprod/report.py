"""Deterministic, serializable verification reports.

A report collects everything one verification run established: the
candidate triples with the reason each was eliminated, reproduced tables,
every certified constant with its enclosure, and the external facts that
were consumed.  Serialization is canonical so identical runs produce byte
identical files: a report is the text ``json.dumps(data, sort_keys=True,
indent=2)`` would give for the report as a dict (non-ASCII text as ``\\u``
escapes) and one trailing newline.  ``VerificationReport.to_json`` writes
it without building that dict: each check and candidate record as one
f-string that lays out the record's lines, and the free-form subtrees
(tables, fixtures, interpretations) through ``json.dumps``.  The tests
build that dict by their own route and compare.  Every record,
``VerificationReport`` included, is a ``NamedTuple``; a report's verdict
and inconclusive count are derived from its records on each read, never
stored.
"""

import json
from fractions import Fraction
from importlib import resources
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .interval import Decision, Outcome, rational_pair

ENCLOSURE_DIGITS = 30

# candidate statuses
ELIMINATED_BY_BOUND = "EliminatedByBound"
ELIMINATED_BY_EXACT_IDENTITY = "EliminatedByExactIdentity"
ELIMINATED_BY_DIMENSION = "EliminatedByDimension"
ELIMINATED_BY_FIXTURE = "EliminatedByFixture"
SURVIVOR = "Survivor"

VERDICT_NO_IDENTITY = "no identity exists"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_FAILED = "verification failed"


def pair_decimal(
    num: int, den: int, digits: int = ENCLOSURE_DIGITS, rounding: str = "floor"
) -> str:
    """Exact decimal rendering of ``num / den``, directed at `digits`
    places, for integers with ``den > 0`` and ``digits >= 1``, computed
    without building a ``Fraction``.

    rounding 'floor' rounds toward minus infinity and 'ceil' toward plus
    infinity, so a (floor, ceil) pair printed for an interval still
    brackets it.
    """
    scale = 10**digits
    if rounding == "floor":
        units = num * scale // den
    elif rounding == "ceil":
        units = -(-num * scale // den)
    else:
        raise ValueError(f"unknown rounding {rounding!r}")
    # zero-padded to at least one whole digit: the last `digits` characters
    # are the fraction
    text = str(abs(units)).zfill(digits + 1)
    return f"{'-' if units < 0 else ''}{text[:-digits]}.{text[-digits:]}"


def fraction_str(value) -> str:
    """``"n"`` or ``"n/d"`` for an ``int`` or ``Fraction``; a float raises
    ``TypeError``."""
    num, den = rational_pair(value)
    return str(num) if den == 1 else f"{num}/{den}"


_encode_str = json.encoder.encode_basestring_ascii


_OUTCOME_TEXT = {outcome: _encode_str(outcome.value) for outcome in Outcome}


def _int_or_null(value: Optional[int]) -> str:
    return "null" if value is None else int.__repr__(value)


# A check record and a candidate record as ``json.dumps(..., sort_keys=True,
# indent=2)`` lays them out inside a report's "constants" and "candidates"
# lists: keys sorted, the record's own lines at depth 2.  The decimals of
# `pair_decimal` and the fractions of `fraction_str` hold no character that
# JSON escapes, so they are quoted directly; every other string goes through
# `_encode_str`, the outcomes once, into `_OUTCOME_TEXT`.
def _check_text(rec: "CheckRecord") -> str:
    decision = rec.decision
    enclosure = decision.enclosure
    (lo_num, lo_den), (hi_num, hi_den) = enclosure.endpoint_pairs()
    precision = int.__repr__(enclosure.precision)
    return (
        "\n    {"
        '\n      "enclosure": {'
        f'\n        "hi": "{pair_decimal(hi_num, hi_den, rounding="ceil")}",'
        f'\n        "lo": "{pair_decimal(lo_num, lo_den, rounding="floor")}",'
        f'\n        "precision": {precision}'
        "\n      },"
        f'\n      "name": {_encode_str(rec.name)},'
        f'\n      "note": {_encode_str(decision.note)},'
        f'\n      "outcome": {_OUTCOME_TEXT[decision.outcome]},'
        f'\n      "precision": {precision},'
        f'\n      "relation": {_encode_str(rec.relation)},'
        f'\n      "threshold": "{fraction_str(rec.threshold)}"'
        "\n    }"
    )


def _candidate_text(rec: "CandidateRecord") -> str:
    return (
        "\n    {"
        f'\n      "D": {_int_or_null(rec.d)},'
        f'\n      "detail": {_encode_str(rec.detail)},'
        f'\n      "k1": {_int_or_null(rec.k1)},'
        f'\n      "k2": {_int_or_null(rec.k2)},'
        f'\n      "label": {_encode_str(rec.label)},'
        f'\n      "status": {_encode_str(rec.status)}'
        "\n    }"
    )


def _records_text(texts: list) -> str:
    return "[" + ",".join(texts) + "\n  ]" if texts else "[]"


def _subtree_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


class CheckRecord(NamedTuple):
    """One certified comparison: `name` states what the enclosure was
    compared against; the decision carries outcome and diagnostics."""

    name: str
    relation: str
    threshold: Fraction
    decision: Decision


class CandidateRecord(NamedTuple):
    """A (D, k1, k2) triple, or a symbolic family of them, with the
    elimination that disposed of it."""

    status: str
    detail: str
    d: Optional[int] = None
    k1: Optional[int] = None
    k2: Optional[int] = None
    label: str = ""


class VerificationReport(NamedTuple):
    """The result of one section run.  Its verdict is worked out from its
    records on each read and is never stored."""

    section: str
    candidates: tuple[CandidateRecord, ...] = ()
    tables: Mapping[str, dict] = MappingProxyType({})
    constants: tuple[CheckRecord, ...] = ()
    fixtures_used: tuple[dict, ...] = ()
    interpretations: tuple[str, ...] = ()

    @property
    def inconclusive(self) -> int:
        return sum(
            1
            for rec in self.constants
            if rec.decision.outcome is Outcome.INCONCLUSIVE
        )

    @property
    def survivors(self) -> list:
        return [c for c in self.candidates if c.status == SURVIVOR]

    @property
    def verdict(self) -> str:
        """Strict verdict: every recorded constant must be CertifiedTrue and
        every candidate eliminated.  Anything undecided is inconclusive, and
        a decided failure (a false certificate or a surviving candidate) is
        a verification failure, never softened."""
        outcomes = [rec.decision.outcome for rec in self.constants]
        if Outcome.INCONCLUSIVE in outcomes:
            return VERDICT_INCONCLUSIVE
        if Outcome.CERTIFIED_FALSE in outcomes or self.survivors:
            return VERDICT_FAILED
        return VERDICT_NO_IDENTITY

    def to_json(self) -> str:
        """The canonical report text and a newline.

        The top-level keys are written here in sorted order and each record
        by its f-string writer.  The free-form subtrees (tables, fixtures,
        interpretations) are ``json.dumps`` text, each line after the first
        indented one more level: JSON text holds no raw newline inside a
        string, so replacing every newline is exact.  The tables are copied
        into a ``dict`` because ``json.dumps`` takes no other mapping, and
        the default is a read-only one.
        """
        return "".join(
            (
                '{\n  "candidates": ',
                _records_text([_candidate_text(c) for c in self.candidates]),
                ',\n  "constants": ',
                _records_text([_check_text(c) for c in self.constants]),
                ',\n  "fixtures": ',
                _subtree_text(self.fixtures_used),
                ',\n  "inconclusive": ',
                int.__repr__(self.inconclusive),
                ',\n  "interpretations": ',
                _subtree_text(self.interpretations),
                ',\n  "section": ',
                _encode_str(self.section),
                ',\n  "tables": ',
                _subtree_text(dict(self.tables)),
                ',\n  "verdict": ',
                _encode_str(self.verdict),
                "\n}\n",
            )
        )


# ---------------------------------------------------------------------------
# table emitters


def _cell(value) -> str:
    if value is None:
        return "-"
    return str(value)


def tables_markdown(report: VerificationReport) -> str:
    lines = []
    for name in sorted(report.tables):
        table = report.tables[name]
        lines.append(f"## {name}")
        lines.append("")
        columns = table["columns"]
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("| " + " | ".join("---" for _ in columns) + " |")
        for row in table["rows"]:
            lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
        lines.append("")
    return "\n".join(lines)


def tables_csv(report: VerificationReport) -> str:
    lines = []
    for name in sorted(report.tables):
        table = report.tables[name]
        lines.append(name)
        lines.append(",".join(table["columns"]))
        for row in table["rows"]:
            lines.append(",".join("" if v is None else str(v) for v in row))
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# golden baseline


def golden_tables() -> dict:
    text = (
        resources.files("eigenprod.data")
        .joinpath("golden_tables.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def compare_to_golden(
    report: VerificationReport, golden: Optional[dict] = None
) -> list[str]:
    """Mismatch descriptions for every table of the report that has a
    golden baseline; empty when everything matches.  `golden` is the
    parsed `golden_tables()`, read here when not given."""
    if golden is None:
        golden = golden_tables()
    mismatches = []
    for name, table in sorted(report.tables.items()):
        if name not in golden:
            continue
        baseline = golden[name]
        if table["columns"] != baseline["columns"]:
            mismatches.append(
                f"{name}: columns {table['columns']} != golden {baseline['columns']}"
            )
            continue
        computed = [list(row) for row in table["rows"]]
        expected = [list(row) for row in baseline["rows"]]
        if computed != expected:
            rows = [
                f"{name}: computed row {row} not in golden table"
                for row in computed
                if row not in expected
            ] + [
                f"{name}: golden row {row} not reproduced"
                for row in expected
                if row not in computed
            ]
            mismatches.extend(rows or [f"{name}: row order differs from golden table"])
    return mismatches

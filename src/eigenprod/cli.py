"""Command line driver.

Runs section verifications and emits reports, plus thin query commands
over the exact-arithmetic layers.  Parsing needs only the defaults and
section names of the package itself; each command imports the layers it
runs, so the query commands never load the certified layer, the
fixtures, the reports or the verifier.  The parser is built once per
process, on the first ``main`` call, and serves every later call.
``RunConfig`` is a ``NamedTuple`` subclass that validates in
``__new__``.  Exit codes are part of the contract:

    0   every requested section ends with "no identity exists"
    1   a section failed (a decided-false certificate or a survivor); one
        stderr line per failed section names the first of them
    2   some decision stayed inconclusive at the precision ceiling; one
        stderr line per inconclusive section names the first such
        record and why it is undecided
    3   a reproduced table disagrees with the golden baseline
    4   the fixtures are unreadable, whatever the sections, or a required
        fact is missing or malformed
    64  command line usage error, an input too large for the memory, or
        scan limits the residue modulus cannot serve

Identical configuration gives byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import (
    DEFAULT_BASE_PRECISION,
    DEFAULT_D_LIMIT,
    DEFAULT_N_MAX,
    DEFAULT_PRECISION_CEILING,
    SECTION_DEGREE,
    SECTION_EQUAL,
    SECTION_INERT,
    SECTION_NONINERT,
    SECTION_ORDER,
    SECTION_UNEQUAL,
)

if TYPE_CHECKING:
    from .fixtures import Fixtures
    from .report import VerificationReport

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCONCLUSIVE = 2
EXIT_TABLE_MISMATCH = 3
EXIT_MISSING_FIXTURE = 4
EXIT_USAGE = 64

OUTPUT_FORMATS = ("json", "markdown", "csv")


class _RunConfigFields(NamedTuple):
    base_precision: int = DEFAULT_BASE_PRECISION
    precision_ceiling: int = DEFAULT_PRECISION_CEILING
    d_limit: int = DEFAULT_D_LIMIT
    n_max: int = DEFAULT_N_MAX
    fixtures_path: Optional[str] = None
    output_format: str = "json"
    out_dir: Optional[str] = None


class RunConfig(_RunConfigFields):
    """The options of one `verify` run, validated once at construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.base_precision < 8:
            raise ValueError("base precision must be at least 8 bits")
        if self.base_precision > self.precision_ceiling:
            raise ValueError("base precision exceeds the precision ceiling")
        if self.d_limit < 41:
            raise ValueError("the discriminant limit must be at least 41")
        if self.n_max < 6:
            raise ValueError("n_max must be at least 6")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"unknown output format: {self.output_format}")
        return self


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the
    # inconclusive exit code; use the conventional 64 instead
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> _Parser:
    """The ``eigenprod`` parser, built once per process; every ``main`` call
    parses with this one object, which nothing modifies after it is built."""
    parser = _Parser(prog="eigenprod", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run section verifications")
    verify.add_argument(
        "section",
        nargs="?",
        default="all",
        choices=("all",) + SECTION_ORDER,
        help="which branch of the case analysis to run",
    )
    verify.add_argument(
        "--precision",
        dest="base_precision",
        type=int,
        default=DEFAULT_BASE_PRECISION,
        metavar="BITS",
    )
    verify.add_argument(
        "--precision-ceiling",
        type=int,
        default=DEFAULT_PRECISION_CEILING,
        metavar="BITS",
    )
    verify.add_argument("--d-limit", type=int, default=DEFAULT_D_LIMIT, metavar="D")
    verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX, metavar="N")
    verify.add_argument("--fixtures", dest="fixtures_path", metavar="PATH")
    verify.add_argument(
        "--format",
        dest="output_format",
        default="json",
        choices=OUTPUT_FORMATS,
    )
    verify.add_argument("--out-dir", default=None, metavar="DIR")

    zeta = sub.add_parser("zeta", help="exact zeta_F(1-k) for fundamental D")
    zeta.add_argument("D", type=int)
    zeta.add_argument("k", type=int)

    fld = sub.add_parser("field", help="invariants of one real quadratic field")
    fld.add_argument("D", type=int)

    scan = sub.add_parser(
        "scan", help="exhaustive exact residual scan for vanishing triples"
    )
    scan.add_argument("d_limit", type=int)
    scan.add_argument("k_limit", type=int)

    demo = sub.add_parser(
        "demo-sqrt5", help="re-check the E4 = 60*E2^2 identity coefficientwise"
    )
    demo.add_argument("trace_bound", type=int)
    return parser


def _run_section(
    section: str, cfg: RunConfig, fixtures: Fixtures
) -> VerificationReport:
    from .verifier import (
        verify_section3_equal,
        verify_section3_unequal,
        verify_section4_inert,
        verify_section4_noninert,
        verify_section5,
    )

    if section == SECTION_UNEQUAL:
        return verify_section3_unequal(
            base_precision=cfg.base_precision,
            precision_ceiling=cfg.precision_ceiling,
        )
    if section == SECTION_EQUAL:
        return verify_section3_equal(
            cfg.d_limit, cfg.base_precision, cfg.precision_ceiling
        )
    if section == SECTION_INERT:
        return verify_section4_inert(
            cfg.d_limit, cfg.base_precision, cfg.precision_ceiling, fixtures
        )
    if section == SECTION_NONINERT:
        return verify_section4_noninert(
            cfg.d_limit, cfg.base_precision, cfg.precision_ceiling, fixtures
        )
    if section == SECTION_DEGREE:
        return verify_section5(
            cfg.n_max, cfg.base_precision, cfg.precision_ceiling, fixtures
        )
    raise ValueError(f"unknown section: {section}")


def _emit(report: VerificationReport, cfg: RunConfig) -> None:
    from pathlib import Path

    from .report import tables_csv, tables_markdown

    if cfg.out_dir is None:
        if cfg.output_format == "json":
            sys.stdout.write(report.to_json())
        else:
            render = tables_markdown if cfg.output_format == "markdown" else tables_csv
            sys.stdout.write(render(report))
        return
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"report-{report.section}.json").write_text(
        report.to_json(), encoding="utf-8"
    )
    if report.tables and cfg.output_format == "markdown":
        (out / f"tables-{report.section}.md").write_text(
            tables_markdown(report), encoding="utf-8"
        )
    elif report.tables and cfg.output_format == "csv":
        (out / f"tables-{report.section}.csv").write_text(
            tables_csv(report), encoding="utf-8"
        )


def _first_failure(report: VerificationReport) -> str:
    # what an inconclusive or failed section's verdict rests on: its first
    # Inconclusive record and why it is undecided, else its first
    # CertifiedFalse record, else its first survivor
    from .interval import Outcome

    for outcome in (Outcome.INCONCLUSIVE, Outcome.CERTIFIED_FALSE):
        for rec in report.constants:
            if rec.decision.outcome is outcome:
                why = f": {rec.decision.note}" if outcome is Outcome.INCONCLUSIVE else ""
                return f"record {rec.name} is {outcome.value}{why}"
    c = report.survivors[0]
    where = c.label or f"D={c.d} k1={c.k1} k2={c.k2}"
    return f"survivor {where}: {c.detail}"


def cmd_verify(section: str, cfg: RunConfig) -> int:
    from .fixtures import Fixtures, MissingFixtureError
    from .report import (
        VERDICT_FAILED,
        VERDICT_INCONCLUSIVE,
        VERDICT_NO_IDENTITY,
        compare_to_golden,
        golden_tables,
    )

    sections = list(SECTION_ORDER) if section == "all" else [section]
    try:
        fixtures = Fixtures.load(cfg.fixtures_path)
    except (OSError, KeyError, ValueError) as exc:
        print(f"fixtures error: {exc}", file=sys.stderr)
        return EXIT_MISSING_FIXTURE
    reports = []
    try:
        for s in sections:
            reports.append(_run_section(s, cfg, fixtures))
    except MissingFixtureError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING_FIXTURE
    for rep in reports:
        try:
            _emit(rep, cfg)
        except OSError as exc:
            print(f"eigenprod: error: cannot write reports: {exc}", file=sys.stderr)
            return EXIT_USAGE
    golden = golden_tables()
    mismatches = [line for rep in reports for line in compare_to_golden(rep, golden)]
    verdicts = [rep.verdict for rep in reports]
    if cfg.out_dir is not None:
        for rep, verdict in zip(reports, verdicts):
            print(f"section {rep.section}: {verdict}")
    for line in mismatches:
        print(f"golden mismatch: {line}", file=sys.stderr)
    for rep, verdict in zip(reports, verdicts):
        if verdict in (VERDICT_FAILED, VERDICT_INCONCLUSIVE):
            print(f"section {rep.section}: {_first_failure(rep)}", file=sys.stderr)
    if mismatches:
        return EXIT_TABLE_MISMATCH
    if VERDICT_INCONCLUSIVE in verdicts:
        return EXIT_INCONCLUSIVE
    if any(verdict != VERDICT_NO_IDENTITY for verdict in verdicts):
        return EXIT_FAILURE
    return EXIT_OK


def cmd_zeta(D: int, k: int) -> int:
    from .exact import dedekind_zeta_neg

    print(dedekind_zeta_neg(D, k))
    return EXIT_OK


def cmd_field(D: int) -> int:
    from .quadfield import field_descriptor

    f = field_descriptor(D)
    print(f"discriminant: {f.discriminant}")
    print(f"radicand: {f.radicand}")
    print(f"splitting of 2: {f.two_splitting.value}")
    print(f"narrow class number: {f.narrow_class_number}")
    return EXIT_OK


def cmd_scan(d_limit: int, k_limit: int) -> int:
    from .hmf_coeffs import exact_identity_scan

    for triple in exact_identity_scan(d_limit, k_limit):
        print(triple)
    return EXIT_OK


def cmd_demo_sqrt5(trace_bound: int) -> int:
    from .hmf_coeffs import verify_sqrt5_identity

    rep = verify_sqrt5_identity(trace_bound)
    print(f"scalar from constant terms: {rep.scalar}")
    print(
        "constant term check: "
        f"{rep.scalar} * (1/120)^2 = 1/240: "
        f"{'ok' if rep.constant_term_ok else 'FAILED'}"
    )
    print(f"coefficients compared up to trace {rep.trace_bound}: {rep.coefficients_checked}")
    for line in rep.mismatches:
        print(f"mismatch: {line}")
    if not rep.passed:
        print("identity check FAILED")
        return EXIT_FAILURE
    if rep.coefficients_checked == 0:
        print(
            "only the constant term was checked: no totally positive element "
            "of Q(sqrt 5) has trace below 2"
        )
    else:
        print("all coefficients verified: E4 = 60*E2^2")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = RunConfig(**{f: getattr(args, f) for f in RunConfig._fields})
            return cmd_verify(args.section, cfg)
        if args.command == "zeta":
            return cmd_zeta(args.D, args.k)
        if args.command == "field":
            return cmd_field(args.D)
        if args.command == "scan":
            return cmd_scan(args.d_limit, args.k_limit)
        if args.command == "demo-sqrt5":
            return cmd_demo_sqrt5(args.trace_bound)
    except ValueError as exc:
        print(f"eigenprod: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("eigenprod: error: not enough memory for this input", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable: argparse enforces the command set")


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()

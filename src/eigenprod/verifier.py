"""Candidate elimination for eigenform product identities.

Each verify_* routine walks one branch of the case analysis.  It certifies
the inequality chain of that branch with interval enclosures, reproduces
the corresponding bound table, disposes of every remaining candidate
triple by an exact residual, an exact dimension count, or an external
fixture fact, and returns a deterministic report.  Certificates are
recorded in the direction that was actually decided, so a report reads as
a list of true statements; anything undecided or decided the wrong way
flips the verdict, never the record.

One rule decides every family: a family is the span of records appended
since its mark, and it is eliminated exactly when every one of them is
CertifiedTrue (``_Run.family``).  Every walk to a first rejection is one
``_Run.sweep``, which fails its family when it runs out of its universe
before the rejection.  A signed check records the direction that was
decided, so a sweep whose end is decided false still holds.  Besides the
chain and sweep certificates, the spans take in f4_floor_d8 and
f6_floor_d8 (the D = 8 unequal-weight chain) and s4-inert's
chain_middle_consistent_* (the discriminant family), so those gate their
family too.

Proof shapes the paper runs twice are written once: both cusp-factor
branches run ``_cusp_factor_sweep`` with their own bounds and hooks, and
degrees 3 and 4 run ``_degree_grid`` with their own constants.

The builders of the trees the runs probe over and over are memoised
(``lru_cache``): ``_weight_factor``, ``c_equal_expr``, ``_gamma_growth``,
``_weight_only_bound``, ``_pair_bound``, ``_pair_bound_split``,
``_degree_base`` and ``_degree_point``; the trees with no argument,
``_FOUR_PI_SQ``, ``_EQUAL_FRONT`` and ``_FRONT_CONSTANT``, are module
constants.  A tree is a function of its builder's arguments, so equal
certificates are the same node objects within a run and across runs, and
a repeated run builds about a third of the nodes a cold one does.  A builder qualifies only when every
input is a hashable argument and it reads no run state and no fixture, so
a memo can never change a tree; a fixture constant enters as an argument
(the minimal discriminant of ``_degree_base``).  Builders whose cached trees
cost more memory than they save time are left unmemoised.  A memoised tree
keeps its last enclosures on its nodes (see ``interval``), so a repeated
run at the same precisions encloses none of its nodes again.  A memo
changes no decision: every certificate is still compared in every run,
against the enclosure its tree and precision determine.

The wider reading of s3-equal's maximal-D column bisects its universe of
fundamental inert discriminants instead of walking it.  The single-weight
constant C(D, k) = (108/pi^6)^2 sqrt(D) k increases in D, so the fields it
admits (C(D, k) <= 1) form a prefix of the sorted universe; bisection
finds the first field whose probe is not CertifiedTrue, as the walk did,
and the admits and exceeds certificates recorded at the two sides of that
boundary are the same ones the walk recorded.  It needs no closing rule of
its own: its universe holds every narrow-one inert field, so its first
rejected field comes no later than the narrow-one sweep's closing field.
"""

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import (
    DEFAULT_BASE_PRECISION,
    DEFAULT_D_LIMIT,
    DEFAULT_N_MAX,
    DEFAULT_PRECISION_CEILING,
    SECTION_DEGREE,
    SECTION_EQUAL,
    SECTION_INERT,
    SECTION_NONINERT,
    SECTION_UNEQUAL,
)
from .exact import is_fundamental_discriminant, zeta_residues
from .fixtures import (
    Fixtures,
    ishikawa_zero_dim_fields,
    magma_weight_range,
    takeuchi_constants,
    voight_min_disc,
)
from .hmf_coeffs import (
    _inert_vanishes,
    cusp_dim_lower_bound,
    exact_identity_scan,
    residual_noninert,
)
from .interval import (
    PI,
    RELATIONS,
    Abs,
    CertifiedReal,
    Decision,
    Exp,
    Expr,
    Log,
    Outcome,
    Pow,
    Rat,
    Sqrt,
    Zeta,
    certified_compare,
    evaluate_with_escalation,
    from_rational,
    rational_pair,
)
from .quadfield import Splitting, narrow_one_fields
from .report import (
    ELIMINATED_BY_BOUND,
    ELIMINATED_BY_DIMENSION,
    ELIMINATED_BY_EXACT_IDENTITY,
    ELIMINATED_BY_FIXTURE,
    SURVIVOR,
    CandidateRecord,
    CheckRecord,
    VerificationReport,
    fraction_str,
    pair_decimal,
)

_FLIP = {">": "<=", ">=": "<", "<": ">=", "<=": ">"}


# ---------------------------------------------------------------------------
# candidate universes


def inert_one_fields(d_limit: int) -> tuple[int, ...]:
    """Discriminants above 5 with narrow class number one and 2 inert."""
    return tuple(
        f.discriminant
        for f in narrow_one_fields(d_limit)
        if f.discriminant > 5 and f.two_splitting is Splitting.INERT
    )


def noninert_one_fields(d_limit: int) -> tuple[int, ...]:
    """Discriminants above 5 with narrow class number one, 2 not inert."""
    return tuple(
        f.discriminant
        for f in narrow_one_fields(d_limit)
        if f.discriminant > 5 and f.two_splitting is not Splitting.INERT
    )


def _fundamental_inert_fields(d_limit: int) -> tuple[int, ...]:
    # the wider reading: every fundamental discriminant with 2 inert,
    # whatever the narrow class number
    return tuple(
        D for D in range(13, d_limit + 1, 8) if is_fundamental_discriminant(D)
    )


# ---------------------------------------------------------------------------
# run state


class _Run:
    """Working state of one section: records plus the escalation policy."""

    def __init__(
        self,
        section: str,
        base_precision: int,
        precision_ceiling: int,
        fixtures: Optional[Fixtures] = None,
    ):
        if base_precision > precision_ceiling:
            raise ValueError("base precision exceeds the precision ceiling")
        self.section = section
        self.base_precision = base_precision
        self.precision_ceiling = precision_ceiling
        self.fixtures = fixtures
        self.constants: list[CheckRecord] = []
        self.candidates: list[CandidateRecord] = []
        self.tables: dict = {}
        self.fixtures_echo: dict = {}
        self.interpretations: list[str] = []

    def probe(self, expr: Expr, threshold, relation: str) -> Decision:
        return evaluate_with_escalation(
            expr, threshold, relation, self.base_precision, self.precision_ceiling
        )

    def check(self, name: str, expr: Expr, threshold, relation: str) -> Decision:
        decision = self.probe(expr, threshold, relation)
        return self.record(name, relation, threshold, decision)

    def record(
        self, name: str, relation: str, threshold, decision: Decision
    ) -> Decision:
        """Record a decision already taken, as ``check`` records its probe.
        A float threshold raises ``TypeError``, as in ``exact``."""
        t = Fraction(*rational_pair(threshold))
        self.constants.append(CheckRecord(name, relation, t, decision))
        return decision

    def check_signed(
        self,
        name: str,
        expr: Expr,
        threshold,
        relation: str,
        hold_suffix: str = "holds",
        fail_suffix: str = "fails",
    ) -> Decision:
        """Record the decided direction positively.

        A CertifiedFalse answer is re-recorded as the CertifiedTrue
        certificate of the flipped relation under the fail name, decided
        by the same enclosure; the returned decision always answers the
        original relation.
        """
        decision = self.probe(expr, threshold, relation)
        if decision.outcome is Outcome.CERTIFIED_FALSE:
            flipped = _flipped(decision, threshold, relation)
            self.record(f"{name}_{fail_suffix}", _FLIP[relation], threshold, flipped)
        else:
            self.record(f"{name}_{hold_suffix}", relation, threshold, decision)
        return decision

    def exact(self, name: str, value, threshold, relation: str) -> Decision:
        """Record a comparison settled by exact rational arithmetic.

        Unlike interval comparisons, '=' can be certified here.  A float
        value or threshold raises ``TypeError``, as in the certified layer.
        """
        v = Fraction(*rational_pair(value))
        holds = RELATIONS[relation](v, threshold)
        outcome = Outcome.CERTIFIED_TRUE if holds else Outcome.CERTIFIED_FALSE
        decision = Decision(outcome, from_rational(v, 0), "exact rational arithmetic")
        return self.record(name, relation, threshold, decision)

    def use_fixture(self, key: str):
        """The fact on file under key, recorded for the report's echo.

        The only place a run reads an external fact: the caller hands the
        returned `Fixture` to its typed accessor.  A run given no fixtures
        loads the built-in ones here, on first use.  Raises
        ``MissingFixtureError`` when the fact is absent.
        """
        if self.fixtures is None:
            self.fixtures = Fixtures.load()
        fix = self.fixtures.get(key)
        self.fixtures_echo[key] = fix
        return fix

    def candidate(
        self, status: str, detail: str, d=None, k1=None, k2=None, label: str = ""
    ) -> None:
        self.candidates.append(CandidateRecord(status, detail, d, k1, k2, label))

    def mark(self) -> int:
        """Where the span of the next family's certificates starts."""
        return len(self.constants)

    def family(
        self, mark: int, detail: str, label: str, status=ELIMINATED_BY_BOUND, d=None
    ) -> bool:
        """Record a family, symbolic or of the field d: eliminated with
        status exactly when every certificate recorded since mark holds, a
        survivor otherwise.  Returns whether it holds."""
        held = all(
            rec.decision.outcome is Outcome.CERTIFIED_TRUE
            for rec in self.constants[mark:]
        )
        self.candidate(status if held else SURVIVOR, detail, d=d, label=label)
        return held

    def sweep(self, prefix: str, xs, gap, threshold, relation: str, *suffixes) -> list:
        """Walk xs in order to the first rejection; return the admitted prefix.

        Each x is recorded as ``check_signed(f"{prefix}{x}", gap(x), ...)``,
        and the first decision that is not CertifiedTrue closes the sweep.
        Run out of xs unclosed, it proves nothing past them: it records
        ``{prefix}{last x, or none}_unclosed``, its 0 closing certificates
        against the 1 it needs, so every family over it survives.
        """
        admitted = []
        for x in xs:
            name = f"{prefix}{x}"
            dec = self.check_signed(name, gap(x), threshold, relation, *suffixes)
            if dec.outcome is not Outcome.CERTIFIED_TRUE:
                return admitted
            admitted.append(x)
        last = admitted[-1] if admitted else "none"
        self.exact(f"{prefix}{last}_unclosed", 0, 1, "=")
        return admitted

    def note(self, text: str) -> None:
        self.interpretations.append(text)

    def report(self) -> VerificationReport:
        return VerificationReport(
            section=self.section,
            candidates=_ordered_candidates(self.candidates),
            tables=dict(sorted(self.tables.items())),
            constants=tuple(self.constants),
            fixtures_used=tuple(fix.echo() for _, fix in sorted(self.fixtures_echo.items())),
            interpretations=tuple(self.interpretations),
        )


def _flipped(decision: Decision, threshold, relation: str) -> Decision:
    """The decision of the flipped relation, from the same enclosure.

    Escalation decides a relation and its flip at the same precision, so
    this is what a fresh probe of the flip returns; an Inconclusive
    decision is kept as it is, its note included.
    """
    if not decision.decided:
        return decision
    return certified_compare(decision.enclosure, threshold, _FLIP[relation])


def _ordered_candidates(cands: list[CandidateRecord]) -> tuple[CandidateRecord, ...]:
    # symbolic family rows first in insertion order, concrete triples after,
    # sorted; candidate order is part of the byte-stable output contract
    families = [c for c in cands if c.d is None]
    concrete = sorted(
        (c for c in cands if c.d is not None),
        key=lambda c: (c.d, c.k1 if c.k1 is not None else 0, c.k2 if c.k2 is not None else 0),
    )
    return (*families, *concrete)


# ---------------------------------------------------------------------------
# comparison constants


_FOUR_PI_SQ = Rat(4) * Pow(PI, 2)

# (108/pi^6)^2, shared by every single-weight constant
_EQUAL_FRONT = Pow(Rat(108) / Pow(PI, 6), 2)

# 291600 / pi^12 = 1 / (zeta(4)^2 zeta(2)^2), the floor of the leading
# zeta quotient once k1 >= 4 and k2 >= 2
_FRONT_CONSTANT = Rat(291600) / Pow(PI, 12)


@lru_cache(maxsize=None)
def _weight_factor(D: int) -> Expr:
    # D / (4 pi^2), the growth unit of every unequal-weight chain
    return Rat(D) / _FOUR_PI_SQ


def c_unequal_expr(D: int, k1: int, k2: int) -> Expr:
    """The two-weight comparison constant C(D, k1, k2) as an expression."""
    if k1 <= k2 or k2 < 2 or k1 % 2 or k2 % 2:
        raise ValueError("weights must be even with k1 > k2 >= 2")
    if D < 5:
        raise ValueError("the discriminant must be at least 5")
    w = _weight_factor(D)
    inner = (
        Zeta(4 * k1)
        / (Pow(Zeta(k1), 2) * Pow(Zeta(k2), 2))
        * Pow(w, k1 - k2)
        * Pow(Rat(math.factorial(k1 - 1)) / Rat(math.factorial(k2 - 1)), 2)
    )
    return (
        Zeta(4 * (k1 + k2))
        / (Pow(Zeta(k1 + k2), 2) * Pow(Zeta(k1), 2))
        * Pow(w, k2)
        * Pow(Rat(math.factorial(k1 + k2 - 1)) / Rat(math.factorial(k1 - 1)), 2)
        * Abs(inner - 1)
    )


@lru_cache(maxsize=None)
def c_equal_expr(D: int, k: int) -> Expr:
    """The single-weight comparison constant (108/pi^6)^2 sqrt(D) k."""
    if k < 2 or k % 2:
        raise ValueError("k must be even and at least 2")
    if D % 8 != 5:
        raise ValueError("the single-weight constant applies to inert fields")
    return _EQUAL_FRONT * Sqrt(Rat(D)) * Rat(k)


def ramare_bound(delta: int) -> Expr:
    """Upper bound for h(delta), delta < -4 fundamental, as an expression:

        h(delta) <= (|delta|^(1/2) / pi) * (log|delta| / 2 + 5/2 - log 6),

    from the optima of L(1, chi) upper bounds.  The s4-inert certificate
    ``class_number_route_d13`` subtracts ramare_bound(-39) / 6.
    """
    if delta >= -4 or not is_fundamental_discriminant(delta):
        raise ValueError("requires a fundamental discriminant below -4")
    n = -delta
    return Sqrt(Rat(n)) / PI * (Log(Rat(n)) / 2 + Rat(Fraction(5, 2)) - Log(Rat(6)))


# ---------------------------------------------------------------------------
# unequal weights


def verify_section3_unequal(
    base_precision: int = DEFAULT_BASE_PRECISION,
    precision_ceiling: int = DEFAULT_PRECISION_CEILING,
) -> VerificationReport:
    """Products E_k1 E_k2 with k1 > k2.

    One chain disposes of every field with D >= 41 at once; each smaller
    narrow class number one field gets its own chain terminating in the
    directly evaluated constant C(D, 4, 2).  The exact residual scan of the
    ``scan`` command (``exact_identity_scan``) re-checks every pair up to
    weight 20 independently of the enclosures.
    """
    discriminants = [f.discriminant for f in narrow_one_fields(40)]
    run = _Run(SECTION_UNEQUAL, base_precision, precision_ceiling)
    K = _FRONT_CONSTANT

    # zeta(4)^2 zeta(2)^2 = pi^12 / (8100 * 36): the closed form behind the
    # front constant, checked on the rational coefficient
    run.exact("front_constant_coefficient", 8100 * 36, 291600, "=")
    mark = run.mark()
    run.check("four_pi_sq_below_41", _FOUR_PI_SQ, 41, "<")
    run.check("front_constant_times_16", K * 16, 1, ">")
    inner41 = K * Pow(Rat(41 * 4) / _FOUR_PI_SQ, 2) - 1
    run.check(
        "large_disc_chain",
        K * Pow(Rat(41 * 16) / _FOUR_PI_SQ, 2) * inner41,
        1,
        ">",
    )
    run.family(
        mark,
        "chain certificates four_pi_sq_below_41, front_constant_times_16, "
        "large_disc_chain; growth in D and k1 covers the rest",
        label="all fields with D >= 41, k1 > k2",
    )

    for D in discriminants:
        w = _weight_factor(D)
        mark = run.mark()
        run.check(f"growth_ratio_floor_d{D}", Rat(16) * w, 1, ">")
        run.check(f"growth_ratio_k6_d{D}", Rat(36) * w, 1, ">")
        deep = K * Pow(Rat(16) * w, 2)
        run.check(f"deep_weight_chain_d{D}", deep, 1, ">")
        tail = K * Pow(Rat(36) * w, 4) * (deep - 1)
        run.check(f"deep_weight_tail_d{D}", tail, 1, ">")
        f6 = Pow(w, 4) * 14400
        low = K * f6
        run.check(f"low_weight_f6_d{D}", low, 1, ">")
        run.check(f"low_weight_tail_d{D}", K * Pow(Rat(36) * w, 2) * (low - 1), 1, ">")
        run.check(f"direct_constant_d{D}_k4_k2", c_unequal_expr(D, 4, 2), 1, ">")
        if D == 8:
            # the two printed growth floors of the worked small field
            run.check("f4_floor_d8", Pow(w, 2) * 36, Fraction(1478, 1000), ">=")
            run.check("f6_floor_d8", f6, Fraction(24281, 1000), ">=")
        held = run.family(
            mark,
            "growth chain certified down to the direct constant C(D, 4, 2)",
            label=f"D = {D}, all even k1 > k2 >= 2",
            d=D,
        )
        if held:
            run.candidate(
                ELIMINATED_BY_BOUND,
                "direct enclosure of the comparison constant exceeds 1",
                d=D,
                k1=4,
                k2=2,
            )

    # exact residual cross-check, independent of every enclosure above: the
    # scan behind the ``scan`` command over the same fields, k1 > k2 only
    zero_count = sum(k1 > k2 for _, k1, k2 in exact_identity_scan(40, 20))
    pair_count = len(discriminants) * sum(k1 // 2 - 1 for k1 in range(2, 22, 2))
    run.exact("unequal_residual_zero_count", zero_count, 0, "=")
    run.note(
        f"the exact constant-term residual vanishes for none of the {pair_count} "
        "pairs with k1 > k2 up to weight 20, independently of the bound chain"
    )
    run.note(
        "growth_ratio_floor certificates make each chain increase in k1, so the "
        "finitely many recorded constants cover every larger weight"
    )
    return run.report()


# ---------------------------------------------------------------------------
# equal weights


def _equal_middle_expr(D: int, k: int) -> Expr:
    # the unsimplified middle line of the equal-weight chain; it must
    # dominate the final constant C(D, k) for the simplification to be an
    # upper bound step
    w = _weight_factor(D)
    num = (
        Pow(Rat(4), 2 - 2 * k)
        * (Rat(72) / Pow(PI, 5))
        * (Pow(w, 2 * k - 1) * Sqrt(w))
        * Pow(Rat(math.factorial(2 * k - 1)), 2)
    )
    den = Pow(Pow(PI, 3) / 18, 2) * Pow(w, 2 * k - 1) * Pow(Rat(math.factorial(k - 1)), 4)
    return num / den


def verify_section3_equal(
    d_limit: int = DEFAULT_D_LIMIT,
    base_precision: int = DEFAULT_BASE_PRECISION,
    precision_ceiling: int = DEFAULT_PRECISION_CEILING,
) -> VerificationReport:
    """Products g = c E_k^2.

    Split and ramified fields fall to an exact residual that is positive
    for every weight.  Inert fields are capped at k <= 20 by the growing
    constant C(D, k); the per-weight maximal admissible discriminant is
    certified field by field, and every admissible pair is then killed by
    the exact residual.
    """
    run = _Run(SECTION_EQUAL, base_precision, precision_ceiling)

    # 2 split or ramified: residual is field independent and positive
    sweep_floor = min(residual_noninert(k) for k in range(2, 42, 2))
    mark = run.mark()
    run.exact("noninert_residual_floor", sweep_floor, 0, ">")
    run.note(
        "the split/ramified residual 2^(2k-1) - 2^(k-1) is positive for every "
        "even k >= 2; the sweep to k = 40 spot-checks the closed form"
    )
    run.family(
        mark,
        "constant-term residual 2^(2k-1) - 2^(k-1) > 0 for every weight",
        label="equal weights, 2 split or ramified, every field",
        status=ELIMINATED_BY_EXACT_IDENTITY,
    )

    # 2 inert: weight cap via the linear growth of C(D, k)
    mark = run.mark()
    run.check("weight_cap_c_13_20", c_equal_expr(13, 20), 1, "<=")
    run.check("weight_cap_c_13_22", c_equal_expr(13, 22), 1, ">")
    run.note(
        "C(D, k) is linear in k and increasing in D, so C(13, 22) > 1 caps the "
        "weight at 20 for every inert field in the universe"
    )
    run.family(
        mark,
        "C(13, 22) > 1 together with growth of C in k and in D",
        label="equal weights, 2 inert, k >= 22",
    )

    # normalization identity of the split constant term, exact at both ends
    # of the weight window
    for k in (2, 20):
        lhs = Fraction(4) ** (1 - 2 * k) * (4 ** (2 * k - 1) - 4 ** (k - 1))
        run.exact(
            f"normalized_split_term_k{k}", lhs - (1 - Fraction(1, 4**k)), 0, "="
        )
        run.exact(f"normalized_split_term_cap_k{k}", lhs, 1, "<=")

    # middle line of the chain dominates the simplified constant; the ratio
    # is independent of D for fixed k, the three spots bracket the window
    for D, k in ((13, 2), (13, 20), (1549, 2)):
        run.check(
            f"chain_middle_dominates_d{D}_k{k}",
            _equal_middle_expr(D, k) - c_equal_expr(D, k),
            0,
            ">=",
        )

    universe = inert_one_fields(d_limit)
    rows = []
    admissible: list[tuple[int, int]] = []
    mark = run.mark()
    for k in range(2, 22, 2):

        def gap(D: int) -> Expr:
            return c_equal_expr(D, k)

        admitted = run.sweep(f"table1_k{k}_d", universe, gap, 1, "<=", "admits", "exceeds")
        admissible += [(D, k) for D in admitted]
        rows.append([k, max(admitted, default=None)])
    run.tables["table1"] = {"columns": ["k", "max_d"], "rows": rows}
    run.family(
        mark,
        "per-weight rejection certificate plus growth of C in D",
        label="equal weights, 2 inert, D above the per-weight maximum",
    )

    # the wider reading of the maximal-D column: every fundamental inert
    # discriminant, narrow class number ignored
    alt_universe = _fundamental_inert_fields(d_limit)
    alt_rows = []
    for k in range(2, 22, 2):
        # C(D, k) increases in D, so the admitted fields are a prefix:
        # bisect for the first field whose probe is not CertifiedTrue.  The
        # last moves of the bisection probe both boundary fields, so their
        # decisions are recorded, not probed again
        decided = {}

        def rejected(D: int) -> bool:
            decided[D] = run.probe(c_equal_expr(D, k), 1, "<=")
            return decided[D].outcome is not Outcome.CERTIFIED_TRUE

        i = bisect_left(alt_universe, True, key=rejected)
        alt_max = alt_universe[i - 1] if i else None
        reject = alt_universe[i] if i < len(alt_universe) else None
        alt_rows.append([k, alt_max])
        if alt_max is not None:
            admits = decided[alt_max]
            run.record(f"table1_alt_k{k}_d{alt_max}_admits", "<=", 1, admits)
        if reject is not None:
            exceeds = _flipped(decided[reject], 1, "<=")
            run.record(f"table1_alt_k{k}_d{reject}_exceeds", ">", 1, exceeds)
    run.tables["table1_interpretations"] = {
        "columns": ["k", "narrow_one_max_d", "all_fundamental_max_d"],
        "rows": [
            [rows[i][0], rows[i][1], alt_rows[i][1]] for i in range(len(rows))
        ],
    }
    differing = [rows[i][0] for i in range(len(rows)) if rows[i][1] != alt_rows[i][1]]
    if differing:
        run.note(
            "the maximal-D column ranges over narrow class number one fields; "
            f"ranging over all fundamental inert discriminants changes k in {differing}"
        )
    else:
        run.note("both readings of the maximal-D column agree on every row")

    # the residual on every admissible pair, shown nonzero mod
    # ZETA_MODULUS and decided exactly only where its residue vanishes
    # (_inert_vanishes); every field's zeta residues come first, through
    # its largest 2k, in one pass of the shared-table kernel (admissible
    # runs k upwards, so the last 2k of a field is its largest); the report
    # sorts candidates
    residues = zeta_residues({D: 2 * k for D, k in admissible})
    zero_count = 0
    for D, k in admissible:
        z = residues[D]  # entry k / 2 - 1 is weight k
        vanishes = _inert_vanishes(D, k, z[k // 2 - 1], z[k - 1])
        zero_count += vanishes
        run.candidate(
            SURVIVOR if vanishes else ELIMINATED_BY_EXACT_IDENTITY,
            f"equal-weight residual {'vanishes' if vanishes else 'nonzero'} (exact)",
            d=D,
            k1=k,
            k2=k,
        )
    run.exact("equal_residual_zero_count", zero_count, 0, "=")
    run.note(
        f"{len(admissible)} admissible (D, k) pairs were checked by exact residual"
    )
    return run.report()


# ---------------------------------------------------------------------------
# products with a cusp factor


def _s_factor(k1: int) -> int:
    return 28 + 9 ** (k1 + 1) + 4 ** (k1 - 1)


def _s2_factor(k1: int, k2: int) -> int:
    return 3 ** (k2 + 3) + 9 ** (k1 + 1) + (1 + 4 ** (k1 - 1)) * 2**k2


@lru_cache(maxsize=None)
def _gamma_growth(head: Expr, k1: int) -> Expr:
    # head * (2 pi)^(2 k1 - 1) / Gamma(k1)^2, the weight growth every
    # cusp-factor bound shares
    return head * Pow(Rat(2) * PI, 2 * k1 - 1) / Pow(Rat(math.factorial(k1 - 1)), 2)


@lru_cache(maxsize=None)
def _weight_only_bound(k1: int) -> Expr:
    return _gamma_growth(Rat(2) * Pow(PI, 5) / 3, k1) * Rat(_s_factor(k1))


@lru_cache(maxsize=None)
def _pair_bound(k1: int, k2: int) -> Expr:
    return _gamma_growth(Pow(PI, 5) / 6, k1) * Rat(_s2_factor(k1, k2))


@lru_cache(maxsize=None)
def _pair_bound_split(k1: int) -> Expr:
    return _gamma_growth(Pow(PI, 5) / 18, k1)


def _disc_bound(pair: Expr, k1: int, D: int) -> Expr:
    # a pair bound divided by its growth D^(k1 - 1/2) in the discriminant
    return pair / (Rat(D ** (k1 - 1)) * Sqrt(Rat(D)))


def _inert_middle(k1: int, k2: int, D: int) -> Expr:
    # the two-term middle line the discriminant bound simplifies; written
    # with (2 pi)^2 / D as the decay unit
    B = _FOUR_PI_SQ / Rat(D)
    g2 = Pow(Rat(math.factorial(k1 - 1)), 2)
    first = Pow(Pow(PI, 5) / 18, 2) * Pow(B, 2 * k1 - 1) / Pow(g2, 2)
    second = (
        Pow(PI, 5)
        / 18
        * (Pow(B, k1 - 1) * Sqrt(B))
        / g2
        * Rat(2 ** (k2 + 1) + _s2_factor(k1, k2))
    )
    return first + second


def _cusp_factor_sweep(
    run: _Run,
    universe: Sequence[int],
    k1_stop: int,
    norm: int,
    weight_gap: Callable[[int], Expr],
    pair_bound: Callable[[int, int], Expr],
    table: str,
    mark: int,
    weight_note: str,
    step_certs: Callable[[_Run, list[int]], None],
    row_cert: Optional[Callable[[_Run, int, int, int], None]] = None,
) -> list[tuple[int, int, int]]:
    """The three nested bound sweeps of both cusp-factor branches.

    weight_gap(k1) is certified nonnegative for even k1 < k1_stop; each
    surviving k1 gets the window of k2 <= 200 where pair_bound(k1, k2)
    reaches norm^(k2-1) (norm^k1 - 1), a ``_Run.sweep``, plus two
    look-ahead certificates outside it; each pair in a window gets the
    sweep of fields whose discriminant bound reaches the same left side.
    The ratio certificates the caller recorded since mark and
    step_certs(run, k1s) make the first failures final; row_cert(run, k1,
    k2, max_d) adds a certificate at each pair's largest field.  Each of
    the three families is eliminated when its span holds: the weight
    family from mark, the pair and discriminant families from their first
    sweep certificate.  Fills the table and its interpretations twin;
    returns the sorted triples.  With no k1 left, the weight family fails
    from k1 = 2 and the windows are skipped.
    """
    surviving_k1 = []
    for k1 in range(2, k1_stop, 2):
        dec = run.check_signed(f"weight_bound_k1_{k1}", weight_gap(k1), 0, ">=")
        if dec.outcome is Outcome.CERTIFIED_TRUE:
            surviving_k1.append(k1)
    max_k1 = max(surviving_k1, default=0)
    run.note(
        f"the weight-only bound holds for even k1 up to {max_k1} and fails "
        f"beyond; {weight_note}"
    )
    run.family(
        mark,
        f"weight-only bound fails from k1 = {max_k1 + 2} on and keeps decreasing",
        label=f"k1 > {max_k1}, every k2 and D",
    )
    if not surviving_k1:
        return []

    # per-k1 window of admissible k2; the two look-ahead certificates past
    # its first failure are recorded whatever they decide, so they stay
    # plain checks outside the sweep
    mark = run.mark()
    windows = []
    for k1 in surviving_k1:

        def pair_gap(k2: int) -> Expr:
            return pair_bound(k1, k2) - Rat(norm ** (k2 - 1) * (norm**k1 - 1))

        window = run.sweep(f"pair_bound_k1_{k1}_k2_", range(2, 202, 2), pair_gap, 0, ">=")
        stop = max(window, default=0) + 2
        for k2 in (stop + 2, stop + 4):
            run.check_signed(f"pair_bound_k1_{k1}_k2_{k2}", pair_gap(k2), 0, ">=")
        windows.append((k1, window))
    step_certs(run, surviving_k1)
    run.family(
        mark,
        "pair bound failures persist beyond each recorded window",
        label="k2 beyond each per-k1 maximum",
    )

    # per-pair discriminant sweep; each table row reads the largest
    # admitted field at k2 = 2 and over the whole window
    mark = run.mark()
    triples: list[tuple[int, int, int]] = []
    rows = []
    alt_rows = []
    for k1, window in windows:
        row_max_d = []
        for k2 in window:
            pair = pair_bound(k1, k2)
            lhs = Rat(norm ** (k2 - 1) * (norm**k1 - 1))

            def gap(D: int) -> Expr:
                return _disc_bound(pair, k1, D) - lhs

            fields = run.sweep(f"disc_bound_k1_{k1}_k2_{k2}_d", universe, gap, 0, ">=")
            triples += [(D, k1, k2) for D in fields]
            row_max_d.append(max(fields, default=None))
            if fields and row_cert is not None:
                row_cert(run, k1, k2, fields[-1])
        over_all = max((d for d in row_max_d if d is not None), default=None)
        rows.append([k1, max(window, default=None), over_all])
        alt_rows.append([k1, row_max_d[0] if row_max_d else None, over_all])
    run.note(
        "the discriminant bound decreases strictly in D, so the first rejected "
        "field closes each row"
    )
    run.family(
        mark,
        "discriminant bound fails at the first field past each maximum and "
        "decreases beyond",
        label="D beyond each per-pair maximum",
    )
    run.tables[table] = {"columns": ["k1", "max_k2", "max_d"], "rows": rows}
    run.tables[f"{table}_interpretations"] = {
        "columns": ["k1", "max_d_at_k2_2", "max_d_any_k2"],
        "rows": alt_rows,
    }
    if all(r[1] == r[2] for r in alt_rows):
        run.note(
            "both readings of the maximal-D column agree; the maximum over k2 "
            "is attained at k2 = 2 in every row"
        )
    else:
        run.note(
            "the maximal-D column is read as the maximum over every admissible "
            "k2; taking it at k2 = 2 differs in some rows"
        )
    return sorted(triples)


def _inert_step_certs(run: _Run, k1s: list[int]) -> None:
    step2_dev = max(
        abs(
            9 * _s2_factor(k1, k2)
            - _s2_factor(k1, k2 + 2)
            - (8 * 9 ** (k1 + 1) + 5 * 2**k2 * (1 + 4 ** (k1 - 1)))
        )
        for k1 in k1s
        for k2 in range(2, 62, 2)
    )
    run.exact("s2_step_identity_deviation", step2_dev, 0, "=")
    run.exact("pair_lhs_step_exceeds_rhs_step", 16, 9, ">")
    run.note(
        "the pair bound left side multiplies by 16 per k2 step while the right "
        "side multiplies by at most 9, so the first failure is final"
    )


def _inert_row_cert(run: _Run, k1: int, k2: int, max_d: int) -> None:
    run.check(
        f"chain_middle_consistent_k1_{k1}_k2_{k2}",
        _disc_bound(_pair_bound(k1, k2), k1, max_d) - _inert_middle(k1, k2, max_d),
        0,
        ">=",
    )


def verify_section4_inert(
    d_limit: int = DEFAULT_D_LIMIT,
    base_precision: int = DEFAULT_BASE_PRECISION,
    precision_ceiling: int = DEFAULT_PRECISION_CEILING,
    fixtures: Optional[Fixtures] = None,
) -> VerificationReport:
    """Products with a cuspidal factor over fields where 2 stays prime.

    Three nested bounds cut the weights and the discriminant down to a
    finite triple list; each remaining triple is eliminated by an exact
    cusp-dimension count or, at the single boundary field, by the recorded
    weight-2 nonexistence fact.
    """
    run = _Run(SECTION_INERT, base_precision, precision_ceiling, fixtures)

    # bound ratio per unit weight step: (2 pi)^2 S(k) / ((k-1)^2 S(k-1))
    # with S(k) <= 9 S(k-1) and (k-1)^2 >= 361 once k >= 20
    mark = run.mark()
    run.check("g_ratio_tail_below_one", Rat(9) * Pow(Rat(2) * PI, 2), 361, "<")
    step_dev = max(
        abs(9 * _s_factor(k - 1) - _s_factor(k) - (224 + 5 * 4 ** (k - 2)))
        for k in range(20, 61)
    )
    run.exact("s_step_identity_deviation", step_dev, 0, "=")
    run.exact("s_step_floor", 224 + 5 * 4**18, 0, ">")
    run.note(
        "9 S(k-1) - S(k) = 224 + 5*4^(k-2) > 0, so the bound at most multiplies "
        "by 9 (2 pi)^2 / (k-1)^2 per step and decreases for every k >= 20"
    )

    triples = _cusp_factor_sweep(
        run,
        inert_one_fields(d_limit),
        k1_stop=42,
        norm=4,
        weight_gap=lambda k1: _weight_only_bound(k1) - Rat(4**k1 - 1),
        pair_bound=_pair_bound,
        table="table2",
        mark=mark,
        weight_note="the decreasing-bound certificates extend the failure to "
        "all larger k1",
        step_certs=_inert_step_certs,
        row_cert=_inert_row_cert,
    )

    # the printed class-number route at the boundary field, re-derived as a
    # single internal consistency certificate
    run.check(
        "class_number_route_d13",
        Rat(3 * 13) * Sqrt(Rat(13)) / Pow(PI, 4) + 1 - ramare_bound(-39) / 6,
        1,
        ">",
    )

    _eliminate_triples(run, triples)
    return run.report()


def _split_step_certs(run: _Run, k1s: list[int]) -> None:
    run.exact("pair_lhs_quadruples", 4, 1, ">")
    run.note(
        "the pair bound right side does not depend on k2 while the left side "
        "quadruples per step, so the first failure is final"
    )


def verify_section4_noninert(
    d_limit: int = DEFAULT_D_LIMIT,
    base_precision: int = DEFAULT_BASE_PRECISION,
    precision_ceiling: int = DEFAULT_PRECISION_CEILING,
    fixtures: Optional[Fixtures] = None,
) -> VerificationReport:
    """Products with a cuspidal factor over fields where 2 splits or
    ramifies.  Same shape as the inert branch with a bound independent of
    k2 on the right, which makes the k2 windows immediate."""
    run = _Run(SECTION_NONINERT, base_precision, precision_ceiling, fixtures)

    # ratio per unit step is (2 pi)^2 / (k-1)^2 < 1 once k >= 8
    mark = run.mark()
    run.check("g_ratio_tail_below_one", Pow(Rat(2) * PI, 2), 49, "<")

    triples = _cusp_factor_sweep(
        run,
        noninert_one_fields(d_limit),
        k1_stop=22,
        norm=2,
        weight_gap=lambda k1: _pair_bound_split(k1) - Rat(2 * (2**k1 - 1)),
        pair_bound=lambda k1, k2: _pair_bound_split(k1),
        table="table3",
        mark=mark,
        weight_note="the decreasing-bound certificate extends the failure upward",
        step_certs=_split_step_certs,
    )
    _eliminate_triples(run, triples)
    return run.report()


def _eliminate_triples(run: _Run, triples: list[tuple[int, int, int]]) -> None:
    """Dispose of concrete (D, k1, k2) survivors of the bound sweeps.

    Weight-2 pairs over the two zero-dimension fields are vacuous; small
    even fields fall to the recorded dimension table; everything else is
    settled by the exact cusp-dimension lower bound.  A triple nothing
    covers is reported as a survivor, which fails the run.
    """
    bounds: dict[tuple[int, int], Fraction] = {}
    # read at the first weight-4 triple: a run with none needs no such fact
    ishikawa_zero = None
    for D, k1, k2 in triples:
        w = k1 + k2
        status, detail = SURVIVOR, "no elimination route applies"
        if w == 4 and ishikawa_zero is None:
            ishikawa_zero = ishikawa_zero_dim_fields(
                run.use_fixture("ishikawa_weight2_dim")
            )
        if w == 4 and D in ishikawa_zero:
            status = ELIMINATED_BY_FIXTURE
            detail = (
                "no weight 2 cuspidal eigenform over this field, so the "
                "triple is vacuous"
            )
        elif D > 12:
            bound = bounds.get((D, w))
            if bound is None:
                bound = bounds[D, w] = cusp_dim_lower_bound(D, w // 2)
                if bound > 1:
                    run.exact(f"dim_floor_d{D}_w{w}", bound, 1, ">")
            if bound > 1:
                run.use_fixture("grh_eigenform_product_criterion")
                status = ELIMINATED_BY_DIMENSION
                detail = (
                    f"cusp space dimension at weight {w} is at least "
                    f"{fraction_str(bound)} > 1"
                )
        else:
            # the dimension formula needs D > 12; small fields live on the
            # recorded dimension table instead
            magma_d, w_min, w_max = magma_weight_range(run.use_fixture("magma_dim_d8"))
            if magma_d == D and w_min <= w <= w_max:
                run.use_fixture("grh_eigenform_product_criterion")
                status = ELIMINATED_BY_FIXTURE
                detail = f"recorded cusp space dimension at weight {w} exceeds 1"
        run.candidate(status, detail, d=D, k1=k1, k2=k2)


# ---------------------------------------------------------------------------
# higher-degree base fields


@lru_cache(maxsize=None)
def _degree_base(n: int, d: int, k2: int) -> Expr:
    # d k2^n / (2 pi)^n, the base every degree-n certificate raises
    return Rat(d * k2**n) / Pow(Rat(2) * PI, n)


@lru_cache(maxsize=None)
def _degree_point(n: int, d: int, k2: int, k1: int) -> Expr:
    return Pow(_degree_base(n, d, k2), k1 - k2) / Pow(Zeta(2), 2 * n)


def _degree_grid(
    run: _Run,
    n: int,
    d: int,
    k1_stop: int,
    gap: Fraction,
    center: Fraction,
    tail: Fraction,
) -> None:
    """The weight grid of degree n over the minimal discriminant d.

    Certifies a distance of at least gap from 1 at every grid point
    2 <= k2 < 14, k2 < k1 < k1_stop, separates the closest point from the
    runner-up and pins it within 10^-5 of center, and certifies the base
    ratios and row tails (at least tail) that keep every off-grid point
    away from 1.  Returns nothing: the certificates open the span of the
    degree's family, which the caller closes.
    """
    dist: dict[tuple[int, int], CertifiedReal] = {}
    rows = []
    for k2 in range(2, 14, 2):
        for k1 in range(k2 + 2, k1_stop, 2):
            dec = run.check(
                f"degree{n}_gap_k2_{k2}_k1_{k1}",
                Abs(_degree_point(n, d, k2, k1) - 1),
                gap,
                ">=",
            )
            dist[(k2, k1)] = dec.enclosure
            lo, hi = dec.enclosure.endpoint_pairs()
            rows.append(
                [
                    k2,
                    k1,
                    pair_decimal(*lo, 12, "floor"),
                    pair_decimal(*hi, 12, "ceil"),
                ]
            )
    run.tables[f"degree{n}_grid"] = {
        "columns": ["k2", "k1", "gap_lo", "gap_hi"],
        "rows": rows,
    }
    m = min(dist, key=lambda p: dist[p].hi)
    runner = min((p for p in dist if p != m), key=lambda p: dist[p].lo)
    sep = dist[runner].lo - dist[m].hi
    run.exact(f"degree{n}_argmin_separation", sep, 0, ">")
    run.note(
        f"the degree-{n} grid point closest to 1 is (k2, k1) = {m}; the "
        f"runner-up gap is {float(dist[runner].lo):.3f} at {runner}"
    )
    closest = _degree_point(n, d, m[0], m[1])
    window = Fraction(1, 10**5)
    run.check(f"degree{n}_min_window_low", closest, center - window, ">=")
    run.check(f"degree{n}_min_window_high", closest, center + window, "<=")
    for k2 in range(2, 16, 2):
        run.check(f"degree{n}_base_k2_{k2}", _degree_base(n, d, k2), 1, ">")
        # row 2 is bounded at its last grid entry, every later row at its
        # first entry k1 = k2 + 2
        k1 = k1_stop - 2 if k2 == 2 else k2 + 2
        run.check(f"degree{n}_tail_k2_{k2}", _degree_point(n, d, k2, k1), tail, ">=")


def _takeuchi(
    a: Fraction, c: int, j: int, m: int, decay: Optional[Fraction] = None
) -> Expr:
    # (c a / pi^j)^m, times e^(-decay) when a decay is given.  Takeuchi's
    # floor a^n e^(-b) on a degree-n discriminant gives the single bound
    # (m = n, decay b), the pairing (m = 2n, decay 2b: the floor squared
    # times (c / pi^j)^(2n)) and the pairing's ratio per degree (m = 2, no
    # decay).  For j = 1 the base is c a / pi itself, so equal trees share
    # one enclosure memo entry.
    power = Pow(Rat(c * a) / (PI if j == 1 else Pow(PI, j)), m)
    return power if decay is None else power * Exp(Rat(-decay))


def verify_section5(
    n_max: int = DEFAULT_N_MAX,
    base_precision: int = DEFAULT_BASE_PRECISION,
    precision_ceiling: int = DEFAULT_PRECISION_CEILING,
    fixtures: Optional[Fixtures] = None,
) -> VerificationReport:
    """Totally real base fields of degree n >= 3.

    Degrees 3 and 4 are settled on a finite weight grid whose distance to
    1 is certified pointwise, with ratio certificates covering the grid
    exterior; degree 5 runs through the minimal-discriminant fact; degrees
    6 and beyond through the paired discriminant bound, certified at the
    boundary and swept to n_max as a safety net.

    The degree-3 and degree-4 grids certify the fixture's minimal
    discriminant only (49 and 725).  At the totally real cubic
    discriminant 148 the degree-3 point (k2, k1) = (2, 4) is about 1.150,
    inside the 1/5 gap certified at 49, so no certificate yet covers
    every cubic field that the degree-3 label names.
    """
    if n_max < 6:
        raise ValueError("n_max must be at least 6")
    run = _Run(SECTION_DEGREE, base_precision, precision_ceiling, fixtures)
    a, b = takeuchi_constants(run.use_fixture("takeuchi_disc_bound"))
    voight = run.use_fixture("voight_min_totally_real_disc")
    d3, d4, d5 = (voight_min_disc(voight, n) for n in (3, 4, 5))

    # the paired discriminant bound: boundary at degree 6, ratio above 1,
    # numeric sweep as a safety net
    mark = run.mark()
    run.check("disc_ratio_floor", Rat(a) / PI, 1, ">")
    run.check("degree6_single", _takeuchi(a, 1, 1, 6, b), 1, ">")
    run.check("degree6_paired", _takeuchi(a, 6, 3, 12, 2 * b), 2, ">=")
    run.check("degree_pair_ratio", _takeuchi(a, 6, 3, 2), 1, ">")
    for n in range(6, n_max + 1):
        run.check(f"delta_pair_n{n}", _takeuchi(a, 6, 3, 2 * n, 2 * b), 2, ">=")
    run.note(
        "the paired bound clears 2 at degree 6 and its ratio exceeds 1, so it "
        f"clears 2 for every larger degree; the sweep to {n_max} is a safety net"
    )
    run.family(
        mark,
        "paired discriminant bound at least 2 from degree 6 on",
        label="degree n >= 6, all weights",
    )

    # degree 5: the Takeuchi pairing alone stays below 2 there, the
    # minimal-discriminant route is the one that certifies
    run.check("degree5_pairing_gap", _takeuchi(a, 6, 3, 10, 2 * b), 2, "<")
    mark = run.mark()
    run.check("degree5_disc_floor", _degree_base(5, d5, 2), 1, ">")
    run.check("degree5_paired", _degree_point(5, d5, 2, 4), 2, ">=")
    run.check("degree5_base", _takeuchi(a, 2, 1, 5, b), 1, ">")
    run.check("degree5_ratio", _takeuchi(a, 180, 5, 2), 1, ">")
    run.check("degree5_contradiction", _takeuchi(a, 180, 5, 10, 2 * b), 128426, ">")
    for n in range(6, n_max + 1):
        run.check(f"degree{n}_bound", _takeuchi(a, 180, 5, 2 * n, 2 * b), 128426, ">")
    run.family(
        mark,
        f"minimal discriminant {d5} forces a two-sided gap of at least 2 and "
        "the final bound exceeds 128426",
        label="degree n = 5, all weights",
    )

    mark = run.mark()
    _degree_grid(
        run, 3, d3, 22, Fraction(1, 5), Fraction(786299, 10**6), Fraction(6, 5)
    )
    run.note(
        "every degree-3 base ratio exceeds 1 and grows with k2, so off-grid "
        "points sit above their row's first entry, which clears 6/5 from "
        "k2 = 4 on and at the first off-grid row k2 = 14"
    )
    zeta_product = Pow(Zeta(6), 3) * Pow(Zeta(4), 3)
    run.check("degree3_zeta_floor", 1 / zeta_product, Fraction(74, 100), ">=")
    run.check(
        "degree3_margin", Rat(Fraction(1, 5)) / zeta_product, Fraction(7, 50), ">="
    )
    run.check(
        "degree3_contradiction",
        Rat(Fraction(7, 50)) * Pow(_degree_base(3, d3, 4), 2),
        Fraction(2237, 100),
        ">",
    )
    run.family(
        mark,
        "grid gaps of at least 1/5 and a final constant above 22.37",
        label="degree n = 3, all weights",
    )

    mark = run.mark()
    _degree_grid(
        run, 4, d4, 42, Fraction(3, 100), Fraction(1033449, 10**6), Fraction(103, 100)
    )
    run.check(
        "degree4_zeta_floor",
        Rat(Fraction(3, 100)) / (Pow(Zeta(6), 4) * Pow(Zeta(4), 4)),
        Fraction(1, 50),
        ">=",
    )
    run.check("degree4_power", Pow(_degree_base(4, d4, 4), 2), 14181, ">=")
    run.exact("degree4_contradiction", Fraction(14181, 50), 1, ">")
    run.family(
        mark,
        "grid gaps of at least 3/100 and a final constant 283.62 > 1",
        label="degree n = 4, all weights",
    )
    return run.report()

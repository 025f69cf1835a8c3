"""Verification toolkit for Eisenstein product identities over real
quadratic fields.

The package is organized bottom-up:

    exact       integer and rational arithmetic (Bernoulli numbers,
                Kronecker characters, special L-values)
    interval    certified real arithmetic and comparison decisions
    quadfield   class numbers, narrow class numbers, unit norms
    hmf_coeffs  Fourier coefficients of Eisenstein series and their
                products, the exact constant-term residuals and the
                exact residual scan
    fixtures    audited external facts consumed by the verifier
    report      serializable run reports and the golden baseline
    verifier    the section-by-section verification routines
    cli         command line entry point

Importing the package loads none of these layers.  Each public name in
``__all__`` is looked up in its home module on first access (PEP 562) and
kept here afterwards, so a command imports only the layers it runs.  The
run defaults and section names below live here, outside every layer,
because the command line parses with them before it knows which layers
it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

DEFAULT_BASE_PRECISION = 128
DEFAULT_PRECISION_CEILING = 1024
DEFAULT_D_LIMIT = 4000
DEFAULT_N_MAX = 64

SECTION_UNEQUAL = "s3-unequal"
SECTION_EQUAL = "s3-equal"
SECTION_INERT = "s4-inert"
SECTION_NONINERT = "s4-noninert"
SECTION_DEGREE = "s5"
SECTION_ORDER = (
    SECTION_UNEQUAL,
    SECTION_EQUAL,
    SECTION_INERT,
    SECTION_NONINERT,
    SECTION_DEGREE,
)

# home module -> the public names it exports
_EXPORTS = {
    "exact": (
        "KroneckerCharacter",
        "bernoulli",
        "dedekind_zeta_neg",
        "generalized_bernoulli",
        "is_fundamental_discriminant",
        "kronecker",
        "zagier_zeta_minus_one",
    ),
    "interval": (
        "PI",
        "Abs",
        "CertifiedReal",
        "Decision",
        "Exp",
        "Log",
        "Outcome",
        "Pow",
        "Rat",
        "Sqrt",
        "Zeta",
        "certified_compare",
        "enclose_exp",
        "enclose_log",
        "enclose_pi",
        "enclose_sqrt",
        "enclose_zeta",
        "evaluate_with_escalation",
    ),
    "quadfield": (
        "FieldDescriptor",
        "Splitting",
        "class_number_imaginary",
        "field_descriptor",
        "narrow_class_number",
        "narrow_one_fields",
        "splitting_of_two",
    ),
    "hmf_coeffs": (
        "EisensteinDescriptor",
        "IdealFactorization",
        "PrimeClass",
        "SqrtFiveIdentityReport",
        "cusp_dim_lower_bound",
        "eisenstein_coeff",
        "exact_identity_scan",
        "factor_ideal",
        "residual_inert",
        "residual_noninert",
        "verify_sqrt5_identity",
    ),
    "fixtures": (
        "Fixture",
        "Fixtures",
        "MalformedFixtureError",
        "MissingFixtureError",
        "ishikawa_zero_dim_fields",
        "magma_weight_range",
        "takeuchi_constants",
        "voight_min_disc",
    ),
    "report": (
        "CandidateRecord",
        "CheckRecord",
        "VerificationReport",
        "compare_to_golden",
        "golden_tables",
    ),
    "verifier": (
        "c_equal_expr",
        "c_unequal_expr",
        "inert_one_fields",
        "noninert_one_fields",
        "ramare_bound",
        "verify_section3_equal",
        "verify_section3_unequal",
        "verify_section4_inert",
        "verify_section4_noninert",
        "verify_section5",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""The record contracts: construction, validation, immutability, repr.

Every record of the package is built positionally and by keyword, shows
as ``Name(field=value, ...)`` and refuses attribute assignment.  The
validating records raise their documented messages.
"""

import pickle
from fractions import Fraction

import pytest

from eigenprod.cli import RunConfig
from eigenprod.exact import KroneckerCharacter, dedekind_zeta_neg
from eigenprod.fixtures import Fixture
from eigenprod.hmf_coeffs import (
    EisensteinDescriptor,
    IdealFactorization,
    PrimeClass,
    SqrtFiveIdentityReport,
)
from eigenprod.interval import Decision, Outcome, from_rational
from eigenprod.quadfield import FieldDescriptor, Splitting
from eigenprod.report import (
    CandidateRecord,
    CheckRecord,
    VerificationReport,
)
from oracles import TotallyPositiveElement

_ENC = from_rational(Fraction(1, 3), 16)
_DECISION = Decision(Outcome.CERTIFIED_TRUE, _ENC, "n")
_CHECK = CheckRecord("c", ">", Fraction(1, 4), _DECISION)
_CANDIDATE = CandidateRecord("Survivor", "why", 5, 4, 2, "L")


def _repr_of(name, fields, values):
    inner = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    return f"{name}({inner})"


# (class, field names, positional arguments, stored values)
_RECORDS = [
    (
        RunConfig,
        ("base_precision", "precision_ceiling", "d_limit", "n_max",
         "fixtures_path", "output_format", "out_dir"),
        (64, 256, 100, 8, "f.json", "csv", "out"),
        (64, 256, 100, 8, "f.json", "csv", "out"),
    ),
    (KroneckerCharacter, ("discriminant", "period"), (-4,), (-4, 4)),
    (
        Fixture,
        ("key", "statement", "source", "conditional_on", "data"),
        ("k", "s", "src", "", {"a": 1}),
        ("k", "s", "src", "", {"a": 1}),
    ),
    (TotallyPositiveElement, ("discriminant", "x", "y"), (5, 2, 1), (5, 2, 1)),
    (
        IdealFactorization,
        ("entries",),
        (((5, PrimeClass.RAMIFIED, 1),),),
        (((5, PrimeClass.RAMIFIED, 1),),),
    ),
    (
        EisensteinDescriptor,
        ("discriminant", "weight", "constant_term"),
        (5, 2),
        (5, 2, Fraction(1, 120)),
    ),
    (
        SqrtFiveIdentityReport,
        ("trace_bound", "scalar", "constant_term_ok", "coefficients_checked",
         "mismatches"),
        (4, Fraction(60), True, 3, ("m",)),
        (4, Fraction(60), True, 3, ("m",)),
    ),
    (
        Decision,
        ("outcome", "enclosure", "note"),
        (Outcome.CERTIFIED_TRUE, _ENC, "n"),
        (Outcome.CERTIFIED_TRUE, _ENC, "n"),
    ),
    (
        FieldDescriptor,
        ("discriminant", "radicand", "two_splitting", "narrow_class_number"),
        (5, 5, Splitting.INERT, 1),
        (5, 5, Splitting.INERT, 1),
    ),
    (
        CheckRecord,
        ("name", "relation", "threshold", "decision"),
        ("c", ">", Fraction(1, 4), _DECISION),
        ("c", ">", Fraction(1, 4), _DECISION),
    ),
    (
        CandidateRecord,
        ("status", "detail", "d", "k1", "k2", "label"),
        ("Survivor", "why", 5, 4, 2, "L"),
        ("Survivor", "why", 5, 4, 2, "L"),
    ),
    (
        VerificationReport,
        ("section", "candidates", "tables", "constants", "fixtures_used",
         "interpretations"),
        ("s5", (_CANDIDATE,), {"t": {"columns": ["x"], "rows": [[1]]}}, (_CHECK,),
         ({"key": "k"},), ("i",)),
        ("s5", (_CANDIDATE,), {"t": {"columns": ["x"], "rows": [[1]]}}, (_CHECK,),
         ({"key": "k"},), ("i",)),
    ),
]
_IDS = [r[0].__name__ for r in _RECORDS]


@pytest.mark.parametrize("cls,fields,args,values", _RECORDS, ids=_IDS)
def test_record_construction_and_repr(cls, fields, args, values):
    rec = cls(*args)
    assert tuple(getattr(rec, f) for f in fields) == values
    assert cls(**dict(zip(fields, args))) == rec
    assert repr(rec) == _repr_of(cls.__name__, fields, values)


@pytest.mark.parametrize("cls,fields,args,values", _RECORDS, ids=_IDS)
def test_record_is_frozen(cls, fields, args, values):
    rec = cls(*args)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, getattr(rec, f))
    assert tuple(getattr(rec, f) for f in fields) == values


@pytest.mark.parametrize("cls,fields,args,values", _RECORDS, ids=_IDS)
def test_record_survives_pickle(cls, fields, args, values):
    rec = cls(*args)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec


def test_record_defaults():
    assert RunConfig() == RunConfig(128, 1024, 4000, 64, None, "json", None)
    assert CandidateRecord("s", "d") == CandidateRecord("s", "d", None, None, None, "")
    assert Decision(Outcome.INCONCLUSIVE, _ENC).note == ""
    assert VerificationReport("s") == VerificationReport("s", (), {}, (), (), ())


def test_verification_report_defaults_are_immutable_and_verdict_is_derived():
    a, b = VerificationReport("a"), VerificationReport("b")
    for name in ("candidates", "constants", "fixtures_used", "interpretations"):
        assert getattr(a, name) == () and type(getattr(a, name)) is tuple
    with pytest.raises(TypeError):
        a.tables["t"] = {}
    assert b.tables == {}
    assert "verdict" not in VerificationReport._fields
    with pytest.raises(TypeError):
        VerificationReport("s", verdict="no identity exists")
    with pytest.raises(AttributeError):
        a.verdict = "no identity exists"


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"base_precision": 7}, "base precision must be at least 8 bits"),
        (
            {"base_precision": 256, "precision_ceiling": 128},
            "base precision exceeds the precision ceiling",
        ),
        ({"d_limit": 40}, "the discriminant limit must be at least 41"),
        ({"n_max": 5}, "n_max must be at least 6"),
        ({"output_format": "yaml"}, "unknown output format: yaml"),
    ],
)
def test_run_config_messages(kwargs, message):
    with pytest.raises(ValueError) as info:
        RunConfig(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: KroneckerCharacter(20), "20 is not a fundamental discriminant"),
        (lambda: KroneckerCharacter(1), "1 is not a fundamental discriminant"),
        (
            lambda: TotallyPositiveElement(5, 1, -3),
            "(1, -3) is not totally nonnegative for D=5",
        ),
        (lambda: EisensteinDescriptor(5, 3), "weight must be even and >= 2"),
        (lambda: EisensteinDescriptor(5, 0), "weight must be even and >= 2"),
    ],
    ids=["kronecker-20", "kronecker-1", "totally-positive", "weight-3", "weight-0"],
)
def test_validating_record_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_eisenstein_constant_term_is_derived():
    e4 = EisensteinDescriptor(weight=4, discriminant=13)
    assert e4.constant_term == dedekind_zeta_neg(13, 4) / 4


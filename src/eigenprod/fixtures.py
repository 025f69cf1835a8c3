"""Audited external facts.

A handful of verification steps rest on results that cannot be recomputed
here: dimensions of particular cusp form spaces, minimal discriminants of
totally real fields, and an analytic discriminant bound.  Those facts live
in a versioned JSON document, each with a citation string, and every
report that consumes one echoes it back so the run can be audited.  A
fact is a `Fixture`, a ``NamedTuple``.

A verification run reads a fact only through ``_Run.use_fixture``, which
looks it up once and records it for the echo.  The typed accessors below
parse the `Fixture` they are handed and name its key in their errors; no
accessor spells a key of its own.
"""

import json
from fractions import Fraction
from importlib import resources
from typing import Any, Mapping, NamedTuple, Optional


class MissingFixtureError(KeyError):
    """A verification step asked for an external fact that is not on file."""

    def __init__(self, key: str):
        super().__init__(key)
        self.key = key

    def __str__(self) -> str:
        return f"missing fixture fact: {self.key}"


class MalformedFixtureError(MissingFixtureError, ValueError):
    """A fact is on file but its data is not in the documented form.

    It is a fixture error, so the run stops as for a missing fact; it is
    also a ValueError, because the document carries a bad value.
    """

    def __init__(self, key: str, detail: str):
        super().__init__(key)
        self.detail = detail

    def __str__(self) -> str:
        return f"malformed {self.key} data: {self.detail}"


class Fixture(NamedTuple):
    key: str
    statement: str
    source: str
    conditional_on: str
    data: Mapping[str, Any]

    def echo(self) -> dict:
        return {
            "key": self.key,
            "statement": self.statement,
            "source": self.source,
            "conditional_on": self.conditional_on,
        }


class Fixtures:
    """Lookup table of externally computed facts."""

    def __init__(self, facts: Mapping[str, Fixture], origin: str = "builtin"):
        self._facts = dict(facts)
        self.origin = origin

    @classmethod
    def from_document(cls, doc: Mapping, origin: str = "builtin") -> "Fixtures":
        entries = doc.get("facts", {}) if isinstance(doc, Mapping) else None
        if not isinstance(entries, Mapping) or not all(
            isinstance(body, Mapping) for body in entries.values()
        ):
            raise ValueError("malformed fixtures document: facts must map keys to objects")
        facts = {}
        for key, body in entries.items():
            for field in ("statement", "source", "conditional_on"):
                if not isinstance(body.get(field, ""), str):
                    raise ValueError(
                        f"malformed fixtures document: {key}.{field} must be a string"
                    )
            facts[key] = Fixture(
                key=key,
                statement=body.get("statement", ""),
                source=body.get("source", ""),
                conditional_on=body.get("conditional_on", ""),
                data=body.get("data", {}),
            )
        return cls(facts, origin=origin)

    @classmethod
    def load(cls, path: Optional[str] = None) -> "Fixtures":
        if path is None:
            text = (
                resources.files("eigenprod.data")
                .joinpath("fixtures.json")
                .read_text(encoding="utf-8")
            )
            origin = "builtin"
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            origin = str(path)
        try:
            document = json.loads(text)
        except RecursionError:
            raise ValueError("malformed fixtures document: nested too deeply") from None
        return cls.from_document(document, origin=origin)

    def get(self, key: str) -> Fixture:
        try:
            return self._facts[key]
        except KeyError:
            raise MissingFixtureError(key) from None

    def __contains__(self, key: str) -> bool:
        return key in self._facts

    def keys(self):
        return sorted(self._facts)


# typed accessors; each parses the fact it is handed and raises
# MalformedFixtureError if the document carries it in a mangled form

_DATA_ERRORS = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)


def _exact(value, what: str):
    # int() would truncate a JSON float and Fraction() would read its binary
    # value; a bool is an int to Python.  An exact fact is an int or a string.
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected {what}, got {value!r}")
    return value


def _integer(value) -> int:
    return int(_exact(value, "an integer"))


def _rational(value) -> Fraction:
    return Fraction(_exact(value, "an integer or a string"))


def takeuchi_constants(fact: Fixture) -> tuple[Fraction, Fraction]:
    try:
        return _rational(fact.data["a"]), _rational(fact.data["b"])
    except _DATA_ERRORS as exc:
        raise MalformedFixtureError(fact.key, str(exc)) from None


def voight_min_disc(fact: Fixture, degree: int) -> int:
    key = f"{fact.key}[{degree}]"
    try:
        return _integer(fact.data[str(degree)])
    except KeyError:
        raise MissingFixtureError(key) from None
    except (TypeError, ValueError) as exc:
        raise MalformedFixtureError(key, str(exc)) from None


def magma_weight_range(fact: Fixture) -> tuple[int, int, int]:
    """(discriminant, weight_min, weight_max) of the computed dim > 1 range."""
    try:
        return (
            _integer(fact.data["discriminant"]),
            _integer(fact.data["weight_min"]),
            _integer(fact.data["weight_max"]),
        )
    except _DATA_ERRORS as exc:
        raise MalformedFixtureError(fact.key, str(exc)) from None


def ishikawa_zero_dim_fields(fact: Fixture) -> frozenset[int]:
    try:
        dims = fact.data["dim_s2"]
        return frozenset(_integer(d) for d, dim in dims.items() if _integer(dim) == 0)
    except _DATA_ERRORS as exc:
        raise MalformedFixtureError(fact.key, str(exc)) from None

"""Externally computed facts and their typed accessors."""

import json
from fractions import Fraction

import pytest

from eigenprod import (
    Fixture,
    Fixtures,
    MalformedFixtureError,
    MissingFixtureError,
    ishikawa_zero_dim_fields,
    magma_weight_range,
    takeuchi_constants,
    voight_min_disc,
)

BUILTIN_KEYS = [
    "grh_eigenform_product_criterion",
    "ishikawa_weight2_dim",
    "magma_dim_d8",
    "takeuchi_disc_bound",
    "voight_min_totally_real_disc",
]


def test_builtin_document_loads():
    fx = Fixtures.load()
    assert fx.origin == "builtin"
    assert fx.keys() == BUILTIN_KEYS
    assert all(key in fx for key in BUILTIN_KEYS)
    assert "nonexistent" not in fx


def test_every_builtin_fact_is_cited():
    fx = Fixtures.load()
    for key in fx.keys():
        fact = fx.get(key)
        assert fact.key == key
        assert fact.statement
        assert fact.source
        echo = fact.echo()
        assert set(echo) == {"key", "statement", "source", "conditional_on"}


def test_missing_fact_raises_typed_error():
    fx = Fixtures.load()
    with pytest.raises(MissingFixtureError) as info:
        fx.get("nonexistent")
    assert isinstance(info.value, KeyError)
    assert str(info.value) == "missing fixture fact: nonexistent"
    assert info.value.key == "nonexistent"


def test_takeuchi_constants():
    a, b = takeuchi_constants(Fixtures.load().get("takeuchi_disc_bound"))
    assert a == Fraction(29099, 1000)
    assert b == Fraction(83185, 10000)


def test_voight_minimal_discriminants():
    fact = Fixtures.load().get("voight_min_totally_real_disc")
    assert voight_min_disc(fact, 3) == 49
    assert voight_min_disc(fact, 4) == 725
    assert voight_min_disc(fact, 5) == 14641
    with pytest.raises(MissingFixtureError):
        voight_min_disc(fact, 7)


def test_magma_weight_range():
    assert magma_weight_range(Fixtures.load().get("magma_dim_d8")) == (8, 6, 18)


def test_ishikawa_zero_dimensional_fields():
    fact = Fixtures.load().get("ishikawa_weight2_dim")
    assert ishikawa_zero_dim_fields(fact) == frozenset({8, 13})


def test_from_document_roundtrip():
    doc = {
        "version": 1,
        "facts": {
            "sample": {
                "statement": "s",
                "source": "src",
                "conditional_on": "",
                "data": {"x": 1},
            }
        },
    }
    fx = Fixtures.from_document(doc, origin="inline")
    assert fx.origin == "inline"
    assert fx.get("sample").data["x"] == 1
    assert fx.keys() == ["sample"]


def test_load_from_path(tmp_path):
    doc = {"version": 1, "facts": {"only": {"statement": "s", "source": "c"}}}
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    fx = Fixtures.load(str(path))
    assert fx.origin == str(path)
    assert fx.keys() == ["only"]
    assert fx.get("only").conditional_on == ""
    with pytest.raises(MissingFixtureError):
        fx.get("takeuchi_disc_bound")


def test_accessor_rejects_mangled_data():
    doc = {"facts": {"takeuchi_disc_bound": {"statement": "s", "source": "c", "data": {"a": "x"}}}}
    with pytest.raises(ValueError, match="malformed takeuchi_disc_bound"):
        takeuchi_constants(Fixtures.from_document(doc).get("takeuchi_disc_bound"))


@pytest.mark.parametrize(
    "accessor",
    [takeuchi_constants, magma_weight_range, ishikawa_zero_dim_fields],
    ids=lambda f: f.__name__,
)
def test_accessor_names_the_fact_it_is_handed(accessor):
    # an accessor reads no key of its own: its errors carry the record's key
    with pytest.raises(MalformedFixtureError, match="^malformed renamed data: "):
        accessor(Fixture("renamed", "s", "c", "", {}))


def test_missing_degree_is_named_after_the_fact():
    with pytest.raises(MissingFixtureError) as info:
        voight_min_disc(Fixture("renamed", "s", "c", "", {"3": 49}), 7)
    assert info.value.key == "renamed[7]"
    assert not isinstance(info.value, MalformedFixtureError)


def test_integer_strings_are_accepted():
    doc = {
        "facts": {
            "voight_min_totally_real_disc": {"data": {"3": "49"}},
            "takeuchi_disc_bound": {"data": {"a": 29, "b": "83185/10000"}},
        }
    }
    fx = Fixtures.from_document(doc)
    assert voight_min_disc(fx.get("voight_min_totally_real_disc"), 3) == 49
    assert takeuchi_constants(fx.get("takeuchi_disc_bound")) == (29, Fraction(83185, 10000))


def test_grh_fact_is_flagged_conditional():
    fact = Fixtures.load().get("grh_eigenform_product_criterion")
    assert fact.conditional_on

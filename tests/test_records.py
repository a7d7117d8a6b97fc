"""The package's value classes: equality, hashing, repr, immutability and
argument checking, built without dataclass code generation."""

import importlib
import pkgutil

import pytest

import solitonlab
from solitonlab.expr import Geo, parse_integrand
from solitonlab.fitting import FitInit
from solitonlab.quadrature import GridSpec, QuadratureError
from solitonlab.records import asdict, record
from solitonlab.solitons import SolitonError, Tolerances


def test_span_stays_out_of_eq_hash_and_repr():
    parsed = parse_integrand("1 + f", ("x", "y"))
    f = parsed.right
    assert f.span != Geo("f").span
    assert f == Geo("f") and hash(f) == hash(Geo("f"))
    assert repr(f) == "Geo(name='f', args=())"
    assert Geo("f") != Geo("r") and Geo("f") != ("f", ())


def test_fields_cannot_be_assigned_or_deleted():
    spec = GridSpec((8, 8))
    with pytest.raises(AttributeError):
        spec.counts = (9, 9)
    with pytest.raises(AttributeError):
        del spec.counts
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert spec.counts == (8, 8)


def test_wrong_arguments_raise_type_error():
    with pytest.raises(TypeError):
        GridSpec()
    with pytest.raises(TypeError):
        GridSpec((8, 8), (8, 8))
    with pytest.raises(TypeError):
        GridSpec(count=(8, 8))
    with pytest.raises(TypeError):
        GridSpec((8, 8), counts=(8, 8))
    with pytest.raises(TypeError):
        Geo()


def test_defaults_keywords_and_post_init():
    assert Tolerances() == Tolerances(1e-8, integral=1e-7)
    assert Tolerances(hypothesis=0.5).hypothesis == 0.5
    with pytest.raises(QuadratureError):
        GridSpec((8, 4))
    with pytest.raises(SolitonError):
        Tolerances(slack=-1.0)


def test_repr_in_dataclass_format():
    assert repr(GridSpec((8, 8))) == "GridSpec(counts=(8, 8))"


def test_asdict_keeps_field_order():
    assert list(asdict(Tolerances())) == ["pointwise", "integral",
                                          "hypothesis", "slack"]
    assert tuple(asdict(FitInit())) == FitInit._fields

    @record
    class Pair:
        second: int
        first: int = 2

    assert asdict(Pair(1)) == {"second": 1, "first": 2}
    assert list(asdict(Pair(first=3, second=4))) == ["second", "first"]


def test_no_class_is_a_dataclass():
    names = [m.name for m in pkgutil.iter_modules(solitonlab.__path__)]
    assert "records" in names
    for name in names:
        module = importlib.import_module(f"solitonlab.{name}")
        for value in vars(module).values():
            if isinstance(value, type):
                assert not hasattr(value, "__dataclass_fields__"), value

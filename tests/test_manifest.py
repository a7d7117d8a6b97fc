"""Manifest schema validation and the bundled manifest collection."""

import copy
import json
import re

import pytest

from solitonlab.fitting import BasisExpansion, FitInit
from solitonlab.manifest import (
    Manifest,
    ManifestError,
    bundled,
    bundled_names,
    load_manifest,
    parse_manifest,
)


def base():
    return {
        "manifold": {
            "name": "torus2",
            "dim": 2,
            "coords": ["x", "y"],
            "domain": [[0, "2*pi"], [0, "2*pi"]],
            "periodic": [True, True],
            "metric": [["1", "0"], ["0", "1"]],
        }
    }


def with_soliton(**overrides):
    data = base()
    block = {"kind": "yamabe", "potential": {"gradient": "sin(x)"},
             "lambda": 1, "mu": 0}
    block.update(overrides)
    data["soliton"] = block
    return data


def test_minimal_manifest_parses():
    m = parse_manifest(base())
    assert isinstance(m, Manifest)
    assert m.name == "torus2"
    assert m.chart.dim == 2
    assert m.chart.grid_hint == (128, 128)
    assert m.soliton is None and m.fit is None


def test_numbers_and_constant_expressions_mix():
    data = base()
    data["manifold"]["domain"] = [["0", 6.283185307179586], ["pi - pi", "2*pi"]]
    data["manifold"]["metric"] = [[1, 0], [0, "1"]]
    m = parse_manifest(data)
    assert m.chart.hi[0] == pytest.approx(2 * 3.141592653589793)


def test_missing_diagonal_entry_names_slot():
    data = base()
    data["manifold"]["metric"] = [["1", "0"], ["0"]]
    with pytest.raises(ManifestError, match=r"metric\[1\]\[1\].*missing"):
        parse_manifest(data)


def test_lower_triangle_is_mirrored():
    data = base()
    data["manifold"]["metric"] = [["1 + 0.3*sin(x)^2", "0.1*sin(x)"],
                                  ["999", "1"]]
    m = parse_manifest(data)
    assert m.chart.metric[1][0] == m.chart.metric[0][1]


def test_bad_metric_expression_names_slot_and_offset():
    data = base()
    data["manifold"]["metric"] = [["1", "0"], ["0", "sin(x"]]
    with pytest.raises(ManifestError, match=r"metric\[1\]\[1\].*offset"):
        parse_manifest(data)


def test_metric_row_too_long():
    data = base()
    data["manifold"]["metric"] = [["1", "0", "0"], ["0", "1"]]
    with pytest.raises(ManifestError, match=r"metric\[0\]"):
        parse_manifest(data)


def test_unknown_keys_rejected():
    data = base()
    data["extra"] = 1
    with pytest.raises(ManifestError, match="manifest.extra"):
        parse_manifest(data)
    data = base()
    data["manifold"]["radius"] = 2
    with pytest.raises(ManifestError, match="manifold.radius"):
        parse_manifest(data)


def test_exclusion_margin_is_an_unknown_field():
    # Every chart integrates over its whole coordinate box.
    data = base()
    data["manifold"]["exclusion_margin"] = 0.1
    with pytest.raises(ManifestError,
                       match="manifold.exclusion_margin: unknown field"):
        parse_manifest(data)


@pytest.mark.parametrize(
    "key,value,path",
    [
        ("coords", ["x"], "coords"),
        ("domain", [[0, 1]], "domain"),
        ("domain", [[0, 1], [0]], r"domain\[1\]"),
        ("domain", [[0, 1], [0, True]], r"domain\[1\]\[1\]"),
        ("periodic", [True, "yes"], "periodic"),
        ("periodic", [True], "periodic"),
        ("grid", [16], "grid"),
        ("grid", [16, True], "grid"),
        ("grid", "fine", "grid"),
        ("dim", True, "dim: expected int, got bool"),
        ("metric", ["1", "1"], "metric: expected 2 rows"),
        ("domain", [[0, "1/0"], [0, 1]], r"domain\[0\]\[1\]: division by zero"),
    ],
)
def test_manifold_field_errors(key, value, path):
    data = base()
    data["manifold"][key] = value
    with pytest.raises(ManifestError, match=f"manifold.{path}"):
        parse_manifest(data)


@pytest.mark.parametrize(
    "block,value,message",
    [
        ("manifold", [1], "manifold: expected an object"),
        ("soliton", [1], "soliton: expected an object"),
        ("fit", "fourier", "fit: expected an object"),
        ("manifold", dict(base()["manifold"], domain=[[1, 1], [0, 1]]),
         r"manifold: chart 'torus2': empty range \[1.0, 1.0\] for 'x'"),
    ],
)
def test_block_errors(block, value, message):
    data = base()
    data[block] = value
    with pytest.raises(ManifestError, match=f"^{message}$"):
        parse_manifest(data)


def test_missing_manifold_block():
    with pytest.raises(ManifestError, match="manifold"):
        parse_manifest({})
    with pytest.raises(ManifestError, match="top level"):
        parse_manifest([1, 2])


def test_soliton_block_parses():
    m = parse_manifest(with_soliton())
    assert m.soliton is not None
    assert m.soliton.kind == "yamabe"
    assert m.soliton.is_gradient
    assert m.soliton.lam == 1.0


def test_soliton_vector_potential():
    m = parse_manifest(with_soliton(potential={"vector": ["1", "0"]}))
    assert not m.soliton.is_gradient
    assert m.soliton.vector is not None


def test_soliton_lambda_zero_rejected():
    with pytest.raises(ManifestError, match="soliton.lambda"):
        parse_manifest(with_soliton(**{"lambda": 0}))


def test_soliton_bad_kind():
    with pytest.raises(ManifestError, match="soliton.kind"):
        parse_manifest(with_soliton(kind="gauss"))


def test_soliton_bad_potential_shape():
    with pytest.raises(ManifestError, match="soliton.potential"):
        parse_manifest(with_soliton(potential={"scalar": "0"}))
    with pytest.raises(ManifestError, match=r"potential.vector"):
        parse_manifest(with_soliton(potential={"vector": ["1"]}))
    with pytest.raises(ManifestError, match=r"potential.gradient"):
        parse_manifest(with_soliton(potential={"gradient": "sin(q)"}))
    with pytest.raises(ManifestError,
                       match=r"potential.gradient: expected an expression"):
        parse_manifest(with_soliton(potential={"gradient": 1}))


def test_fit_block_parses_with_defaults():
    data = base()
    data["fit"] = {"kind": "ricci", "basis": "fourier", "degree": 1}
    m = parse_manifest(data)
    assert m.fit.kind == "ricci"
    assert m.fit.basis == BasisExpansion(m.chart, "fourier", 1)
    assert m.fit.init == FitInit()


def test_fit_block_options_and_init():
    data = base()
    data["fit"] = {
        "kind": "ricci", "basis": "fourier", "degree": 1,
        "init": {"coefficients": [0, "1/2", 0, 0, 0], "lambda": 2, "mu": "1"},
    }
    m = parse_manifest(data)
    assert m.fit.init.coefficients == (0.0, 0.5, 0.0, 0.0, 0.0)
    assert m.fit.init.lam == 2.0 and m.fit.init.mu == 1.0
    # The fit's iteration cap, tolerances and damping are constants.
    data["fit"]["options"] = {"max_iterations": 50, "damping": "1/1000"}
    with pytest.raises(ManifestError, match="fit.options: unknown field"):
        parse_manifest(data)


@pytest.mark.parametrize(
    "block,path",
    [
        ({"basis": "fourier", "degree": 1}, "fit.kind"),
        ({"kind": "ricci", "basis": "wavelet", "degree": 1}, "fit.basis"),
        ({"kind": "ricci", "basis": "fourier", "degree": -1}, "fit.degree"),
        ({"kind": "ricci", "basis": "fourier", "degree": 1,
          "options": {"speed": 9}}, "fit.options: unknown field"),
        ({"kind": "ricci", "basis": "fourier", "degree": 1,
          "options": {"max_iterations": 0}}, "fit.options: unknown field"),
        ({"kind": "ricci", "basis": "fourier", "degree": 1,
          "init": {"coefficients": "big"}}, "fit.init.coefficients"),
        ({"kind": "ricci", "basis": "fourier", "degree": 1,
          "options": {"fd_step": 1e-6}}, "fit.options: unknown field"),
        ({"kind": "ricci", "basis": "fourier", "degree": True},
         "fit.degree: expected int, got bool"),
        ({"kind": "ricci", "basis": "fourier", "degree": 1,
          "init": {"coefficients": [0, 0, 0]}},
         "fit.init.coefficients: expected 5 coefficients"),
        ({"kind": "ricci", "basis": "poly-cos", "degree": 1},
         "fit.basis: poly-cos basis needs a nonperiodic coordinate"),
        ({"kind": "gauss", "basis": "fourier", "degree": 1},
         "fit.kind: expected one of"),
        ({"kind": "ricci", "basis": "fourier", "degree": 1, "init": [0]},
         "fit.init: expected an object"),
    ],
)
def test_fit_field_errors(block, path):
    data = base()
    data["fit"] = block
    with pytest.raises(ManifestError, match=path):
        parse_manifest(data)


def test_load_manifest_round_trip(tmp_path):
    target = tmp_path / "case.json"
    target.write_text(json.dumps(with_soliton()), encoding="utf-8")
    m = load_manifest(target)
    assert m.soliton.kind == "yamabe"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999",
                                     pytest.param("1" + "0" * 400,
                                                  id="int-beyond-float")])
@pytest.mark.parametrize("path", ["soliton.lambda", "soliton.mu",
                                  "manifold.domain[0][1]", "fit.init.lambda"])
def test_non_finite_json_number_names_its_path(tmp_path, path, literal):
    # Python's json reads the first three as nan or inf, the last as an
    # int that no float holds.
    data = with_soliton()
    data["fit"] = {"kind": "ricci", "basis": "fourier", "degree": 1,
                   "init": {"lambda": 1}}
    block, key = {
        "soliton.lambda": (data["soliton"], "lambda"),
        "soliton.mu": (data["soliton"], "mu"),
        "manifold.domain[0][1]": (data["manifold"]["domain"][0], 1),
        "fit.init.lambda": (data["fit"]["init"], "lambda"),
    }[path]
    block[key] = "@"
    target = tmp_path / "case.json"
    target.write_text(json.dumps(data).replace('"@"', literal),
                      encoding="utf-8")
    with pytest.raises(ManifestError,
                       match=f"^{re.escape(path)}: expected a finite number"):
        load_manifest(target)


def test_load_manifest_bad_json(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{not json", encoding="utf-8")
    with pytest.raises(ManifestError, match="invalid JSON"):
        load_manifest(target)
    with pytest.raises(ManifestError, match="cannot read"):
        load_manifest(tmp_path / "absent.json")


def test_bundled_collection_loads():
    names = bundled_names()
    assert len(names) >= 17
    assert "sphere2" in names and "torus2_fit_ricci" in names
    for name in names:
        m = bundled(name)
        assert m.chart.dim in (2, 3)


def test_bundled_unknown_name():
    with pytest.raises(ManifestError, match="sphere2"):
        bundled("klein_bottle")


def test_bundled_trivial_solitons_are_marked():
    for name in ("sphere2_yamabe_trivial", "torus2_ricci_trivial"):
        m = bundled(name)
        assert m.soliton is not None and m.soliton.is_gradient
    killing = bundled("torus2_killing_vector")
    assert killing.soliton is not None and not killing.soliton.is_gradient


def test_parse_does_not_mutate_input():
    data = with_soliton()
    snapshot = copy.deepcopy(data)
    parse_manifest(data)
    assert data == snapshot

"""End-to-end command line tests: exit codes, report shape, determinism."""

import json
import math
from pathlib import Path

import pytest

import solitonlab.cli as cli
from solitonlab.cli import main, render_json
from solitonlab.solitons import (
    CHECK_IDS,
    GRADIENT_ONLY,
    CheckReport,
    workspace,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ----------------------------------------------------------------- rendering

def test_render_json_round_trip():
    obj = {
        "a": 1 / 3,
        "b": [1, 2.5, True, False, None, "x\"y"],
        "c": {"nested": {"pi": math.pi}, "empty": {}, "none": []},
    }
    text = render_json(obj)
    assert json.loads(text) == obj


def test_render_json_17_digit_floats():
    values = [1 / 3, math.pi, 1e-300, 123456.789, 2.0, -0.0]
    for v in values:
        assert float(json.loads(render_json(v))) == v


def test_render_json_rejects_non_finite():
    with pytest.raises(ValueError):
        render_json(float("nan"))
    with pytest.raises(ValueError):
        render_json({"x": float("inf")})


# ------------------------------------------------------------------ describe

def test_describe_sphere(capsys):
    rep = report(capsys, "describe", "sphere2")
    assert rep["command"] == "describe"
    assert rep["dim"] == 2
    assert rep["grid"] == [64, 128]
    assert rep["volume"] == pytest.approx(4 * math.pi, abs=1e-8)
    assert rep["scalar_curvature"]["min"] == pytest.approx(2.0, abs=1e-9)
    assert rep["scalar_curvature"]["max"] == pytest.approx(2.0, abs=1e-9)
    assert rep["einstein_deviation_max"] <= 1e-9
    assert "soliton" not in rep


def test_describe_torus_flat(capsys):
    rep = report(capsys, "describe", "torus2", "--grid", "16,16")
    assert rep["grid"] == [16, 16]
    assert abs(rep["scalar_curvature"]["min"]) <= 1e-10
    assert abs(rep["scalar_curvature"]["max"]) <= 1e-10
    assert rep["einstein_deviation_max"] <= 1e-10


def test_describe_soliton_block_summary(capsys):
    rep = report(capsys, "describe", "sphere2_yamabe_trivial", "--grid", "16,16")
    assert rep["soliton"] == {
        "kind": "yamabe", "potential": "gradient", "lambda": 1.0, "mu": 2.0,
    }


def test_describe_rejects_indefinite_metric(tmp_path, capsys):
    data = {
        "manifold": {
            "name": "bad", "dim": 2, "coords": ["x", "y"],
            "domain": [[0, "2*pi"], [0, "2*pi"]], "periodic": [True, True],
            "metric": [["1", "0"], ["0", "cos(x)"]],
        }
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "describe", str(path))
    assert code == 2
    assert "not positive definite" in err and "x=" in err


# ---------------------------------------------------------------- exit codes

def test_missing_manifest_exits_2(capsys):
    code, out, err = run(capsys, "describe", "no_such_manifest")
    assert code == 2
    assert "bundled" in err


def test_schema_error_names_metric_slot(tmp_path, capsys):
    data = {
        "manifold": {
            "name": "bad", "dim": 2, "coords": ["x", "y"],
            "domain": [[0, 1], [0, 1]], "periodic": [True, True],
            "metric": [["1", "0"], ["0"]],
        }
    }
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "describe", str(path))
    assert code == 2
    assert "metric[1][1]" in err


def test_unknown_check_id_lists_valid_ids(capsys):
    code, out, err = run(capsys, "check", "sphere2_yamabe_trivial", "bogus-id")
    assert code == 2
    for cid in CHECK_IDS:
        assert cid in err


def test_check_without_soliton_block_exits_2(capsys):
    code, out, err = run(capsys, "check", "sphere2", "T-C")
    assert code == 2
    assert "soliton" in err


def test_gradient_only_check_on_vector_manifest_exits_2(capsys):
    code, out, err = run(capsys, "check", "torus2_killing_vector", "bochner")
    assert code == 2
    assert "gradient" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_violated_verdict_maps_to_exit_1(monkeypatch, capsys):
    fake = CheckReport(
        check_id="schur", verdict="violated", max_residual=1.0,
        residuals={"x": 1.0}, hypothesis_residuals={}, integrals={},
        info={}, grid=(4, 4), tolerances={"pointwise": 0.0}, notes=(),
    )
    monkeypatch.setattr(cli, "run_check", lambda *a, **k: fake)
    code, out, err = run(capsys, "check", "torus2_ricci_trivial", "schur")
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict_counts"]["violated"] == 1


# --------------------------------------------------------------------- check

def test_check_trivial_soliton_all_hold(capsys):
    rep = report(capsys, "check", "sphere2_yamabe_trivial", "T-1", "T-SQ")
    ids = [c["check_id"] for c in rep["checks"]]
    assert ids == ["T-1", "T-SQ"]
    assert all(c["verdict"] == "identity-holds" for c in rep["checks"])


def test_check_flag_and_positional_ids_merge(capsys):
    rep = report(capsys, "check", "sphere2_yamabe_trivial", "T-C",
                 "--checks", "schur,remark_csc", "--grid", "24,24")
    ids = [c["check_id"] for c in rep["checks"]]
    assert ids == ["T-C", "schur", "remark_csc"]


def test_check_nonsoliton_hypothesis_not_met(capsys):
    rep = report(capsys, "check", "sphere2_nonsoliton_yamabe", "lemma_hessian")
    assert rep["checks"][0]["verdict"] == "hypothesis-not-met"


def test_check_vector_manifest_defaults_to_applicable(capsys):
    rep = report(capsys, "check", "torus2_killing_vector")
    ids = [c["check_id"] for c in rep["checks"]]
    assert ids == ["trace_lie2", "remark_csc", "schur", "T-C"]
    assert all(c["verdict"] == "identity-holds" for c in rep["checks"])


def test_readme_check_table_matches_catalog():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Checks", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    assert [row[0].strip("`") for row in rows] == list(CHECK_IDS)
    needs_gradient = [row[0].strip("`") for row in rows if row[-1] == "yes"]
    assert needs_gradient == list(GRADIENT_ONLY)


def test_check_report_carries_tolerances(capsys):
    rep = report(capsys, "check", "torus2_ricci_trivial", "schur",
                 "--grid", "16,16", "--tol", "1e-5")
    assert rep["tolerances"] == {
        "pointwise": 1e-5, "integral": 1e-5, "hypothesis": 1e-5, "slack": 1e-5,
    }


# ----------------------------------------------------------------- integrate

def test_integrate_constant_is_area(capsys):
    rep = report(capsys, "integrate", "sphere2", "1")
    assert rep["value"] == pytest.approx(4 * math.pi, abs=1e-8)
    assert rep["grid"] == [64, 128]
    assert rep["rules"] == ["cosine", "periodic"]


def test_integrate_ricci_pairing_closed_form(capsys):
    rep = report(capsys, "integrate", "sphere2_nonsoliton_yamabe",
                 "ric(gradf,gradf)")
    assert rep["value"] == pytest.approx(8 * math.pi / 3, abs=1e-7)


def test_integrate_gradf_gradr_vanishes(capsys):
    rep = report(capsys, "integrate", "sphere2_nonsoliton_yamabe",
                 "g(gradf, gradr)")
    assert abs(rep["value"]) <= 1e-10


def test_integrate_scalar_curvature_and_laplacian(capsys):
    rep = report(capsys, "integrate", "sphere2", "r")
    assert rep["value"] == pytest.approx(8 * math.pi, abs=1e-7)
    rep = report(capsys, "integrate", "sphere2_nonsoliton_yamabe", "lap(f)")
    assert abs(rep["value"]) <= 1e-10


def test_integrate_hessian_norm_closed_form(capsys):
    rep = report(capsys, "integrate", "sphere2_nonsoliton_yamabe",
                 "norm2_hess(f)")
    assert rep["value"] == pytest.approx(8 * math.pi / 3, abs=1e-7)


def test_integrate_vector_potential(capsys):
    rep = report(capsys, "integrate", "torus2_killing_vector",
                 "ric(xi,xi) + g(xi,xi)", "--grid", "16,16")
    assert rep["value"] == pytest.approx(4 * math.pi ** 2, abs=1e-8)


def test_integrand_vector_computed_once(monkeypatch, capsys):
    calls = []
    original = cli.raise_covec
    monkeypatch.setattr(cli, "raise_covec",
                        lambda *args: calls.append(1) or original(*args))
    report(capsys, "integrate", "sphere2_nonsoliton_yamabe",
           "g(gradf,gradf) + ric(gradf,gradf)", "--grid", "16,16")
    assert len(calls) == 1


def test_integrate_errors_exit_2(capsys):
    cases = [
        ("sphere2", "f"),
        ("sphere2", "gradf"),
        ("sphere2", "lap(r)"),
        ("sphere2", "ric(gradr)"),
        ("sphere2", "ric(gradr, q)"),
        ("sphere2", "unknown_name + 1"),
        ("sphere2", "sin(th"),
        ("sphere2", "exp(3^6)*r"),
    ]
    for manifest, expression in cases:
        code, out, err = run(capsys, "integrate", manifest, expression)
        assert code == 2, (manifest, expression)
        assert err.startswith("error:")
        # Only the first case fails after parsing: sphere2 declares no potential.
        if expression != "f":
            assert "at offset" in err, expression


def test_integrate_non_finite_names_first_bad_node(capsys):
    code, out, err = run(capsys, "integrate", "sphere2", "log(cos(th))",
                         "--grid", "8,8")
    assert code == 2
    assert "node (4, 0) (th=1.75528, ph=0)" in err


def test_integrand_names_cannot_be_coordinates(tmp_path, capsys):
    data = {
        "manifold": {
            "name": "torus_rf", "dim": 2, "coords": ["r", "f"],
            "domain": [[0, "2*pi"], [0, "2*pi"]], "periodic": [True, True],
            "metric": [["1", "0"], ["0", "1"]],
        },
        "soliton": {"kind": "ricci", "potential": {"gradient": "sin(r)*cos(f)"},
                    "lambda": 1, "mu": 0},
    }
    path = tmp_path / "torus_rf.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "describe", str(path))
    assert code == 0, err
    code, out, err = run(capsys, "integrate", str(path), "r")
    assert code == 2
    assert "shadows" in err


# ----------------------------------------------------------------------- fit

def test_fit_command_reports_and_checks(capsys):
    rep = report(capsys, "fit", "sphere2_fit_yamabe", "--grid", "16,16")
    res = rep["result"]
    assert res["mu"] == pytest.approx(2.0, abs=1e-6)
    assert res["objective"] <= 1e-12
    assert res["converged"] is True
    assert res["lambda_clamped"] is False
    assert rep["basis"]["terms"] == ["1"]
    assert float(rep["potential"]) == pytest.approx(0.3, abs=1e-15)
    assert [c["check_id"] for c in rep["checks"]] == list(CHECK_IDS)
    assert rep["verdict_counts"]["violated"] == 0


def test_fit_builds_one_workspace(capsys):
    # The fit's full-grid objective and every post-fit check read one
    # workspace of the fitted soliton.
    workspace.cache_clear()
    report(capsys, "fit", "sphere2_fit_yamabe")
    assert workspace.cache_info().misses == 1


def test_fit_without_fit_block_exits_2(capsys):
    code, out, err = run(capsys, "fit", "sphere2")
    assert code == 2
    assert "fit" in err


# -------------------------------------------------------------- determinism

def test_reports_byte_identical_across_runs(tmp_path, capsys):
    pairs = []
    for name in ("one", "two"):
        target = tmp_path / f"{name}.json"
        code, out, err = run(capsys, "check", "torus2_ricci_trivial",
                             "--grid", "24,24", "--out", str(target))
        assert code == 0
        pairs.append((out, target.read_bytes()))
    assert pairs[0][0] == pairs[1][0]
    assert pairs[0][1] == pairs[1][1]
    assert pairs[0][0].encode("utf-8") == pairs[0][1]


def test_integrate_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, err = run(capsys, "integrate", "warped_sphere", "r^2",
                             "--grid", "32,32")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]

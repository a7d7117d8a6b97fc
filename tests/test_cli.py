"""End-to-end command line tests: exit codes, report shape, determinism."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import solitonlab.cli as cli
from solitonlab import geometry, jets, solitons
from solitonlab.cli import main, render_json
from solitonlab.manifest import Manifest, bundled
from solitonlab.quadrature import default_grid
from solitonlab.solitons import (
    CHECK_IDS,
    GRADIENT_ONLY,
    CheckReport,
    SolitonSpec,
    identity_bochner,
    identity_div_lie,
    identity_trace_lie2,
    workspace,
)

from conftest import random_scalar, random_vector


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


def test_describe_and_frame_leaves_read_the_frame_on_its_own_batch(
        monkeypatch, capsys):
    # The flat torus's metric is one node's numbers.  describe's maxima and
    # volume, and the integrand leaves r, gradr, ric and g, read the cached
    # (1, 1) frame rather than a copy per grid node.
    frames = []
    for name in ("max_norm", "integral"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda fr, *args, original=original:
                            frames.append(fr) or original(fr, *args))
    report(capsys, "describe", "torus2")
    fr = solitons.grid_frame(bundled("torus2").chart)
    assert fr.r.shape == (1, 1)
    assert len(frames) == 2 and all(f is fr for f in frames)
    leaves, original_values = {}, cli.eval_values

    def recording(node, x, leaf=None):
        def spy(nd):
            value = leaf(nd)
            leaves[nd.name] = np.shape(value)
            return value
        return original_values(node, x, spy if leaf else None)

    monkeypatch.setattr(cli, "eval_values", recording)
    man = bundled("torus2_ricci_trivial")
    cli._integrand_values(man, default_grid(man.chart),
                          "r + ric(gradr,gradr) + g(gradr,gradf)")
    assert leaves == {"r": (1, 1), "ric": (1, 1), "g": (1, 1)}


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
    assert "at node (64, 0) (x=3.14159, y=0)" in err


def test_one_dimensional_manifest_exits_2_at_manifold(tmp_path, capsys):
    # Every statement and all curvature need n >= 2; (n - 2)/(n - 1) in
    # prop_p2 used to divide by zero on a circle.
    data = {
        "manifold": {
            "name": "circle", "dim": 1, "coords": ["x"],
            "domain": [[0, "2*pi"]], "periodic": [True], "metric": [["1"]],
        },
        "soliton": {"kind": "yamabe", "potential": {"gradient": "sin(x)"},
                    "lambda": 1, "mu": 0},
    }
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: manifold: chart 'circle' has dimension 1, "
                   "supported is 2..4\n")


@pytest.mark.parametrize("metric,grid,label", [
    # The bad entry depends on the second coordinate of a two-axis mesh...
    ([["2 + cos(y)", "0"], ["0", "cos(y)"]], [],
     "(eigenvalue -1.000e+00) at node (0, 64) (x=0, y=3.14159)"),
    # ...and on the second axis of a three-axis mesh.
    ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0.5 + cos(y)"]],
     ["--grid", "8,10,12"],
     "(eigenvalue -5.000e-01) at node (0, 5, 0) (x=0, y=3.14159, z=0)"),
])
def test_describe_names_the_first_failing_node(tmp_path, capsys, metric, grid,
                                               label):
    dim = len(metric)
    data = {
        "manifold": {
            "name": "bad", "dim": dim, "coords": ["x", "y", "z"][:dim],
            "domain": [[0, "2*pi"]] * dim, "periodic": [True] * dim,
            "metric": metric,
        }
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "describe", str(path), *grid)
    assert code == 2
    assert f"not positive definite {label}\n" in err


def test_describe_hintless_three_axis_chart_takes_16_per_axis(tmp_path, capsys):
    # The two-axis default of 128 per periodic axis would be 2.1 million
    # nodes here.
    data = {
        "manifold": {
            "name": "torus3", "dim": 3, "coords": ["x", "y", "z"],
            "domain": [[0, "2*pi"]] * 3, "periodic": [True] * 3,
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2 + cos(y)"]],
        }
    }
    path = tmp_path / "torus3.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rep = report(capsys, "describe", str(path))
    assert rep["grid"] == [16, 16, 16]
    assert rep["dim"] == 3


@pytest.mark.parametrize("command,metric_yy,potential", [
    ("describe", "2 + log(cos(th))", "0"),
    ("check", "sin(th)^2", "log(cos(th))"),
])
def test_out_of_domain_field_names_its_node(tmp_path, capsys, command,
                                            metric_yy, potential):
    data = {
        "manifold": {
            "name": "sphere2", "dim": 2, "coords": ["th", "ph"],
            "domain": [[0, "pi"], [0, "2*pi"]], "periodic": [False, True],
            "metric": [["1", "0"], ["0", metric_yy]],
        },
        "soliton": {"kind": "yamabe", "potential": {"gradient": potential},
                    "lambda": 1, "mu": 2},
    }
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, command, str(path), "--grid", "8,8")
    assert code == 2
    assert "node (4, 0) (th=1.75528, ph=0): log requires a positive value" in err


def torus_manifest(tmp_path, metric_yy, potential):
    data = {
        "manifold": {
            "name": "torus2", "dim": 2, "coords": ["x", "y"],
            "domain": [[0, "2*pi"], [0, "2*pi"]], "periodic": [True, True],
            "metric": [["1", "0"], ["0", metric_yy]],
        },
        "soliton": {"kind": "yamabe", "potential": {"gradient": potential},
                    "lambda": 1, "mu": 2},
    }
    path = tmp_path / "torus2.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command,metric_yy,potential,offset", [
    ("check", "1", "1 + 0.1*sin(x)^(1e308*10)", 16),
    ("check", "1", "1 + 0.1*sin(x)^(0*(1e308*10))", 19),
    ("describe", "1 + 0*(1e308*10)", "0", 7),
])
def test_overflowing_constant_exits_2_at_its_offset(tmp_path, capsys, command,
                                                    metric_yy, potential, offset):
    path = torus_manifest(tmp_path, metric_yy, potential)
    code, out, err = run(capsys, command, path, "--grid", "8,8")
    assert code == 2
    # The offset counts in the metric entry or the potential it names.
    what = ("metric of 'torus2' entry [1][1]" if command == "describe"
            else repr(potential))
    assert f"error: {what}: constant overflows at offset {offset}" in err


def test_non_finite_field_names_its_node(tmp_path, capsys, monkeypatch):
    # The constants are finite, but the potential's derivatives overflow.
    # The repeated squaring stops at the first square that is not finite,
    # first at the base's maximum 1.1 at x = pi/2, within far fewer jet
    # products than the thousand that the 997 bits of 1e300 would take.
    calls = []
    original = jets.Jet.__mul__
    monkeypatch.setattr(jets.Jet, "__mul__",
                        lambda *args: calls.append(1) or original(*args))
    path = torus_manifest(tmp_path, "1", "(1+0.1*sin(x))^1e300")
    code, out, err = run(capsys, "check", path, "--grid", "8,8")
    assert code == 2
    assert "node (2, 0) (x=1.5708, y=0): non-finite value or derivative" in err
    assert len(calls) < 64


def test_overflowing_mesh_factor_names_its_node(tmp_path, capsys):
    # exp(800 sin x) overflows at x = pi/2, and the product's other factor
    # depends on y only, so its support skips the pairs that would multiply
    # that inf by an exact zero (nan in the whole convolution, inf here).
    # The first non-finite node is the same either way.
    path = torus_manifest(tmp_path, "1", "exp(800*sin(x))*cos(y)")
    code, out, err = run(capsys, "check", path, "--grid", "8,8")
    assert code == 2
    assert ("'exp(800*sin(x))*cos(y)' not defined at node (2, 0) "
            "(x=1.5708, y=0): non-finite value or derivative") in err


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


def test_repeated_check_id_exits_2(capsys):
    code, out, err = run(capsys, "check", "sphere2_yamabe_trivial", "T-1", "T-1")
    assert code == 2 and out == ""
    assert "'T-1'" in err and "more than once" in err


def test_check_ids_may_follow_an_option(capsys):
    rep = report(capsys, "check", "sphere2_yamabe_trivial", "T-1",
                 "--grid", "8,8", "schur", "div_lie")
    assert [c["check_id"] for c in rep["checks"]] == ["T-1", "schur", "div_lie"]
    with pytest.raises(SystemExit) as exc:
        main(["check", "sphere2_yamabe_trivial", "--grid", "8,8", "schur",
              "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_check_without_soliton_block_exits_2(capsys):
    code, out, err = run(capsys, "check", "sphere2", "T-C")
    assert code == 2
    assert "soliton" in err


def test_gradient_only_check_on_vector_manifest_exits_2(capsys):
    code, out, err = run(capsys, "check", "torus2_killing_vector", "bochner")
    assert code == 2
    assert "gradient" in err


def test_unwritable_out_exits_2_before_stdout(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "x.json"
    code, out, err = run(capsys, "describe", "torus2", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err


def test_non_finite_report_value_exits_2(tmp_path, capsys):
    # The potential's jets stay finite, but the norm of the soliton residual
    # overflows to inf, which the report cannot render.  The overflow itself
    # raises no numpy warning, so stderr holds only the error line.
    path = torus_manifest(tmp_path, "1", "exp(300*sin(x))")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check", path, "T-1", "--grid", "16,16")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 2 and out == ""
    assert "error: non-finite value in report" in err
    assert ("at $.checks[0].hypothesis_residuals.soliton_residual: inf"
            in err)


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


def test_check_positional_ids_keep_order_and_checks_flag_is_gone(capsys):
    rep = report(capsys, "check", "sphere2_yamabe_trivial", "T-C",
                 "schur", "remark_csc", "--grid", "24,24")
    ids = [c["check_id"] for c in rep["checks"]]
    assert ids == ["T-C", "schur", "remark_csc"]
    with pytest.raises(SystemExit) as exc:
        main(["check", "sphere2_yamabe_trivial", "--checks", "schur"])
    assert exc.value.code == 2


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


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "identity-holds"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_rejects_meaningless_tol(capsys, tol):
    code, out, err = run(capsys, "check", "sphere2_yamabe_trivial", "T-N2",
                         f"--tol={tol}")
    assert code == 2 and out == ""
    assert "tolerance pointwise must be finite and nonnegative" in err


@pytest.mark.parametrize("command", [("describe",), ("integrate", "1")])
def test_tol_is_rejected_where_nothing_reads_it(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command[0], "sphere2", *command[1:], "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


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


def test_integrate_expression_with_a_leading_minus_follows_double_dash(capsys):
    # argparse reads "-r" as an option, so the expression is missing;
    # after "--" every token is positional.
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "sphere2", "-r"])
    assert exc.value.code == 2
    assert ("the following arguments are required: expression"
            in capsys.readouterr().err)
    rep = report(capsys, "integrate", "sphere2", "--", "-r")
    assert rep["expression"] == "-r"
    assert rep["value"] == pytest.approx(-8 * math.pi, abs=1e-7)


def test_integrate_hessian_norm_closed_form(capsys):
    rep = report(capsys, "integrate", "sphere2_nonsoliton_yamabe",
                 "norm2_hess(f)")
    assert rep["value"] == pytest.approx(8 * math.pi / 3, abs=1e-7)


def test_integrate_vector_potential(capsys):
    rep = report(capsys, "integrate", "torus2_killing_vector",
                 "ric(xi,xi) + g(xi,xi)", "--grid", "16,16")
    assert rep["value"] == pytest.approx(4 * math.pi ** 2, abs=1e-8)


def test_check_and_integrate_share_the_field_jets(monkeypatch, capsys):
    # In one process, an integrand reads f's quantities from the Workspace
    # that check cached: f's jets are evaluated once, and norm2_hess(f)
    # integrates to the report's int_hess_norm2 bit for bit.
    whats = []
    original = geometry._derivatives
    monkeypatch.setattr(geometry, "_derivatives",
                        lambda *args: whats.append(args[4]) or original(*args))
    workspace.cache_clear()
    name, grid = "sphere2_nonsoliton_yamabe", ("--grid", "16,16")
    checks = report(capsys, "check", name, *grid)
    report(capsys, "integrate", name,
           "lap(f) + norm2_hess(f) + g(gradf,gradf)", *grid)
    hess = report(capsys, "integrate", name, "norm2_hess(f)", *grid)
    assert whats.count(repr(bundled(name).soliton.potential.source)) == 1
    t1 = next(c for c in checks["checks"] if c["check_id"] == "T-1")
    assert hess["value"] == t1["integrals"]["int_hess_norm2"]


def test_warm_loop_builds_each_workspace_once_and_keeps_two(rng):
    # The library loop reads f's Workspace, then a vector field's, then f's
    # and one coordinate expression's under each integrand: no Workspace is
    # built twice, and the cache keeps no more than two.
    workspace.cache_clear()
    targets = 0
    for name in ("sphere2", "torus3"):
        ch = bundled(name).chart
        grid = default_grid(ch, (8,) * ch.dim)
        spec = SolitonSpec(name=name, chart=ch, kind="yamabe", lam=1.0,
                           mu=0.0, potential=random_scalar(ch, rng))
        for check in (identity_trace_lie2, identity_bochner, identity_div_lie):
            check(spec, grid)
        identity_trace_lie2(random_vector(ch, rng), grid)
        man = Manifest(name=name, chart=ch, soliton=spec, fit=None)
        s = random_scalar(ch, rng).source
        for text in ("lap(f)", f"lap({s})", "norm2_hess(f)"):
            cli.cmd_integrate(man, text, grid)
        targets += 3
    info = workspace.cache_info()
    assert info.misses == targets
    assert info.currsize <= 2


def test_integrand_evaluates_each_field_once(monkeypatch):
    # Three fields under one integrand outnumber the workspace cache; the
    # integrand still holds s's Workspace, so norm2_hess(s) reuses its jets.
    whats = []
    original = geometry._derivatives
    monkeypatch.setattr(geometry, "_derivatives",
                        lambda *args: whats.append(args[4]) or original(*args))
    workspace.cache_clear()
    man = bundled("sphere2_nonsoliton_yamabe")
    s, t = "sin(th)*cos(ph)", "cos(th)^2"
    cli.cmd_integrate(man, f"lap({s}) + lap(f) + lap({t}) + norm2_hess({s})",
                      default_grid(man.chart, (16, 16)))
    assert whats.count(repr(s)) == 1


def test_integrate_coordinate_expression_matches_order_four_jets(monkeypatch,
                                                                 capsys):
    # lap and norm2_hess of a coordinate expression read its bare field's
    # order-3 jets, and the integral is the one order-4 jets give, bit for bit.
    s = "sin(th)*cos(ph) + 0.4*cos(th)^2"
    argv = ("integrate", "warped_sphere", f"lap({s}) + norm2_hess({s})")
    workspace.cache_clear()
    value = report(capsys, *argv)["value"]
    original = solitons.scalar_jets
    monkeypatch.setattr(solitons, "scalar_jets",
                        lambda field, x, order: original(field, x, order=4))
    workspace.cache_clear()
    assert report(capsys, *argv)["value"] == value


def test_integrate_errors_exit_2(capsys):
    # A parse error names its offset; the rest fail after parsing.
    cases = [
        (("sphere2", "f"), "declares no gradient potential"),
        (("sphere2", "gradf"), "at offset"),
        (("sphere2", "lap(r)"), "at offset"),
        (("sphere2", "ric(gradr)"), "at offset"),
        (("sphere2", "ric(gradr, q)"), "at offset"),
        (("sphere2", "unknown_name + 1"), "at offset"),
        (("sphere2", "sin(th"), "at offset"),
        (("sphere2", "exp(3^6)*r"), "at offset"),
        (("sphere2_yamabe_trivial", "g(xi,xi)"), "declares no vector potential"),
        (("sphere2", "1", "--grid", "64,x"),
         "--grid expects comma separated integers, got '64,x'"),
        (("sphere2", "1", "--grid", ""),
         "--grid expects comma separated integers, got ''"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, "integrate", *argv)
        assert code == 2, argv
        assert err.startswith("error:") and message in err, argv


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


def test_fit_at_a_floor_ends_with_a_report(tmp_path, capsys):
    # No gradient Yamabe soliton exists on the warped sphere: the fit stalls
    # at a nonzero objective, which is a result, not an error.
    source = Path(cli.__file__).parent / "manifests" / "warped_sphere.json"
    data = json.loads(source.read_text(encoding="utf-8"))
    data["fit"] = {"kind": "yamabe", "basis": "poly-cos", "degree": 2,
                   "init": {"coefficients": [0, 0.1, 0.1], "lambda": 1,
                            "mu": 2}}
    path = tmp_path / "warped_fit.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    res = report(capsys, "fit", str(path), "--grid", "32,64")["result"]
    assert res["converged"] is False
    assert res["reason"] == "no decrease at maximum damping"
    assert 0.3276 < res["objective"] < 0.3277


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

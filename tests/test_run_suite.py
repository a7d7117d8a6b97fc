"""The suite script's comparison against a previous run's reports."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_suite.py"
_spec = importlib.util.spec_from_file_location("run_suite", SCRIPT)
suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(suite)

CHECK = {
    "command": "check",
    "tolerances": {"pointwise": 1e-8, "integral": 1e-7},
    "verdict_counts": {"identity-holds": 1, "violated": 0},
    "checks": [{"check_id": "schur", "verdict": "identity-holds",
                "max_residual": 0, "grid": [16, 16]}],
}
INTEGRAL = {"command": "integrate", "value": 12.5, "grid": [8, 8]}


def write(directory, reports):
    directory.mkdir(parents=True)
    for label, report in reports.items():
        (directory / f"{label}.json").write_text(json.dumps(report))


def run_compare(tmp_path, old, new, statuses=None):
    write(tmp_path / "old", old)
    write(tmp_path / "new", new)
    statuses = statuses or {label: 0 for label in new}
    return suite.compare(tmp_path / "old", tmp_path / "new", statuses)


def moved(report, path, value):
    report = json.loads(json.dumps(report))
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return report


def test_identical_reports_pass(tmp_path, capsys):
    reports = {"a__check": CHECK, "a__integral0": INTEGRAL}
    assert run_compare(tmp_path, reports, reports) == 0
    assert "2 of 2 reports unchanged" in capsys.readouterr().out


def test_small_float_moves_pass_and_are_printed(tmp_path, capsys):
    # A residual printed as 0 reads back as an int; its move to a float
    # still counts as a float change.
    new = moved(CHECK, ("checks", 0, "max_residual"), 3e-13)
    assert run_compare(tmp_path, {"a__check": CHECK}, {"a__check": new}) == 0
    out = capsys.readouterr().out
    assert "largest float change 3e-13 at $.checks[0].max_residual" in out


@pytest.mark.parametrize("label,report,path,value", [
    ("a__check", CHECK, ("checks", 0, "max_residual"), 2e-8),
    ("a__check", CHECK, ("checks", 0, "verdict"), "violated"),
    ("a__check", CHECK, ("checks", 0, "grid"), [16, 32]),
    ("a__integral0", INTEGRAL, ("value",), 12.5 + 2e-8),
])
def test_moves_beyond_the_suite_fail(tmp_path, capsys, label, report, path,
                                     value):
    new = moved(report, path, value)
    assert run_compare(tmp_path, {label: report}, {label: new}) == 1
    assert f"FAIL {label}" in capsys.readouterr().out


def test_changed_exit_status_fails(tmp_path, capsys):
    violated = moved(CHECK, ("verdict_counts", "violated"), 1)
    assert run_compare(tmp_path, {"a__check": CHECK},
                       {"a__check": violated}) == 1
    assert "exit status 0 -> 1" in capsys.readouterr().out
    # A report this run failed to write is exit status 2, even if a stale
    # copy is left in the output directory.
    assert run_compare(tmp_path / "stale", {"a__check": CHECK},
                       {"a__check": CHECK}, {"a__check": 2}) == 1
    assert "exit status 0 -> 2" in capsys.readouterr().out


FIT = {
    "command": "fit",
    "tolerances": {"pointwise": 1e-8, "integral": 1e-7},
    "potential": "0.16400000000000001 + (5.9815322953852603e-15)*sin(y) "
                 "+ (-1.0944931435468768e-14)*cos(x1)",
}


def test_numbers_in_text_within_tolerance_pass(tmp_path, capsys):
    # Last-bit noise in embedded coefficients, a sign flip near zero included.
    new = moved(FIT, ("potential",),
                "0.16400000000000001 + (-2.1e-15)*sin(y) "
                "+ (-1.0944931435468771e-14)*cos(x1)")
    assert run_compare(tmp_path, {"a__fit": FIT}, {"a__fit": new}) == 0
    out = capsys.readouterr().out
    assert "largest float change 8.08e-15 at $.potential" in out


@pytest.mark.parametrize("potential,line", [
    # A number moves by more than the tolerance...
    ("0.16400002 + (5.9815322953852603e-15)*sin(y) "
     "+ (-1.0944931435468768e-14)*cos(x1)", "largest float change 2e-08"),
    # ...or the text around the numbers changes, a name's digit included.
    ("0.16400000000000001 + (5.9815322953852603e-15)*sin(y) "
     "+ (-1.0944931435468768e-14)*cos(x2)", "$.potential: '0.164"),
])
def test_numbers_in_text_beyond_the_suite_fail(tmp_path, capsys, potential,
                                               line):
    new = moved(FIT, ("potential",), potential)
    assert run_compare(tmp_path, {"a__fit": FIT}, {"a__fit": new}) == 1
    out = capsys.readouterr().out
    assert "FAIL a__fit" in out and line in out


# Both fits, a check with integrals on sphere2 (whose schur residual moves
# under another kernel) and a three-axis check.
CROSS_KERNEL = ("sphere2_fit_yamabe", "torus2_fit_ricci",
                "sphere2_nonsoliton_yamabe", "sphere3_yamabe_trivial")

# Runs the command line tool once per (label, command line) pair given as
# JSON, writing each report to the directory given first, and prints the
# exit statuses with the name of the OpenBLAS kernel in use (None if numpy's
# BLAS is not a bundled OpenBLAS).
CHILD = """
import ctypes, io, json, sys
from contextlib import redirect_stdout
from pathlib import Path
import numpy as np
from solitonlab.cli import main

def core():
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_",
                     "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                return getattr(lib, name)().decode()
    return None

out, statuses = Path(sys.argv[1]), {}
for label, argv in json.loads(sys.argv[2]):
    with redirect_stdout(io.StringIO()):
        statuses[label] = main(argv + ["--out", str(out / f"{label}.json")])
print(json.dumps({"core": core(), "statuses": statuses}))
"""


def run_child(out_dir, coretype):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(SCRIPT.parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [(label, argv) for label, argv in suite.invocations()
            if label.split("__")[0] in CROSS_KERNEL]
    out_dir.mkdir()
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(out_dir), json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_compare_passes_under_another_blas_kernel(tmp_path, capsys):
    # The variable picks OpenBLAS's kernel for the older Prescott CPUs, and
    # acts only on its child: bytes may differ from the default kernel's,
    # verdicts, exit statuses and non-float fields may not, and floats stay
    # within each report's tolerance.
    default = run_child(tmp_path / "default", None)
    if default["core"] is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    assert len(default["statuses"]) == 11
    assert set(default["statuses"].values()) == {0}
    other = run_child(tmp_path / "prescott", "Prescott")
    if other["core"] == default["core"]:
        pytest.skip(f"OPENBLAS_CORETYPE=Prescott left the {default['core']} kernel")
    assert suite.compare(tmp_path / "default", tmp_path / "prescott",
                         other["statuses"]) == 0
    assert "0 beyond tolerance" in capsys.readouterr().out

"""The suite script's comparison against a previous run's reports."""

import importlib.util
import json
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

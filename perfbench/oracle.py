"""Output checks for every operation the benchmark runs.

Fixed invocations are compared with ``reference.json``, captured from the
program by ``capture_reference.py``: verdicts and exit codes must be equal and
floats must agree within the tolerance the report itself states (the default
tolerances for ``describe`` and ``integrate``, whose reports state none),
relative to the reference value when that exceeds 1.  Generated inputs have
no reference; they must exit 0 with no ``violated`` verdict and keep every
unconditional identity residual at or below ``IDENTITY_TOL``.  Each
check returns a list of problems; an empty list means the output is correct.
"""

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# solitonlab.solitons.Tolerances defaults.
POINTWISE_TOL = 1e-8
INTEGRAL_TOL = 1e-7

# Unconditional identity lines of the check catalog, and their bound on
# every generated input.
IDENTITY_LINES = {
    "trace_lie2": "trace_formula",
    "bochner": "bochner",
    "div_lie": "div_lie_formula",
    "schur": "schur",
}
IDENTITY_TOL = 1e-8


def load_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def extract(command, report):
    """The parts of a report the reference pins."""
    if command == "describe":
        return {
            "grid": report["grid"],
            "volume": report["volume"],
            "r_min": report["scalar_curvature"]["min"],
            "r_max": report["scalar_curvature"]["max"],
            "einstein_deviation_max": report["einstein_deviation_max"],
        }
    if command == "integrate":
        return {"grid": report["grid"], "value": report["value"]}
    return {
        "grid": report["grid"],
        "verdict_counts": report["verdict_counts"],
        "checks": [
            {key: c[key] for key in ("check_id", "verdict", "max_residual",
                                     "residuals", "hypothesis_residuals",
                                     "integrals", "tolerances")}
            for c in report["checks"]
        ],
    }


def _close(value, ref, tol):
    return math.isfinite(value) and abs(value - ref) <= tol * max(1.0, abs(ref))


def _compare_floats(where, got, ref, tol, problems):
    if set(got) != set(ref):
        problems.append(f"{where}: keys {sorted(got)} != {sorted(ref)}")
        return
    for key, value in ref.items():
        if not _close(got[key], value, tol):
            problems.append(f"{where}.{key}: {got[key]!r} != {value!r}")


def compare(label, command, code, report, ref):
    """Problems of one fixed invocation against its reference entry."""
    problems = []
    if code != ref["exit_code"]:
        problems.append(f"{label}: exit code {code} != {ref['exit_code']}")
        return problems
    got = extract(command, report)
    want = ref["report"]
    if got["grid"] != want["grid"]:
        problems.append(f"{label}: grid {got['grid']} != {want['grid']}")
    if command == "describe":
        for key in ("r_min", "r_max", "einstein_deviation_max"):
            if not _close(got[key], want[key], POINTWISE_TOL):
                problems.append(f"{label}.{key}: {got[key]!r} != {want[key]!r}")
        if not _close(got["volume"], want["volume"], INTEGRAL_TOL):
            problems.append(f"{label}.volume: {got['volume']!r} != {want['volume']!r}")
        return problems
    if command == "integrate":
        if not _close(got["value"], want["value"], INTEGRAL_TOL):
            problems.append(f"{label}.value: {got['value']!r} != {want['value']!r}")
        return problems
    if got["verdict_counts"] != want["verdict_counts"]:
        problems.append(f"{label}: verdict counts {got['verdict_counts']} "
                        f"!= {want['verdict_counts']}")
    if [c["check_id"] for c in got["checks"]] != [c["check_id"] for c in want["checks"]]:
        problems.append(f"{label}: check ids differ")
        return problems
    for mine, theirs in zip(got["checks"], want["checks"]):
        where = f"{label}.{theirs['check_id']}"
        if mine["verdict"] != theirs["verdict"]:
            problems.append(f"{where}: verdict {mine['verdict']} != {theirs['verdict']}")
        tol = theirs["tolerances"]
        if not _close(mine["max_residual"], theirs["max_residual"], tol["pointwise"]):
            problems.append(f"{where}.max_residual: {mine['max_residual']!r} "
                            f"!= {theirs['max_residual']!r}")
        _compare_floats(f"{where}.residuals", mine["residuals"],
                        theirs["residuals"], tol["pointwise"], problems)
        _compare_floats(f"{where}.hypothesis_residuals",
                        mine["hypothesis_residuals"],
                        theirs["hypothesis_residuals"], tol["hypothesis"], problems)
        _compare_floats(f"{where}.integrals", mine["integrals"],
                        theirs["integrals"], tol["integral"], problems)
    return problems


def check_generated(label, code, report):
    """Problems of a check report on a generated manifest."""
    if code != 0:
        return [f"{label}: exit code {code}"]
    problems = []
    for c in report["checks"]:
        if c["verdict"] == "violated":
            problems.append(f"{label}.{c['check_id']}: violated")
        line = IDENTITY_LINES.get(c["check_id"])
        if line is not None and not c["residuals"][line] <= IDENTITY_TOL:
            problems.append(f"{label}.{c['check_id']}.{line}: {c['residuals'][line]!r}")
    return problems


def check_fit(label, code, report):
    """The outcomes acceptance criterion 6 asserts, plus no violated verdict."""
    if code != 0:
        return [f"{label}: exit code {code}"]
    problems = []
    result = report["result"]
    if report["manifest"] == "torus2":
        if not result["objective"] <= 1e-12:
            problems.append(f"{label}: objective {result['objective']!r} > 1e-12")
        if not abs(result["mu"]) <= 1e-6:
            problems.append(f"{label}: |mu| = {abs(result['mu'])!r} > 1e-6")
    elif report["manifest"] == "sphere2":
        if not abs(result["mu"] - 2.0) <= 1e-6:
            problems.append(f"{label}: |mu - 2| = {abs(result['mu'] - 2.0)!r} > 1e-6")
    else:
        problems.append(f"{label}: unexpected manifest {report['manifest']!r}")
    if report["verdict_counts"]["violated"]:
        problems.append(f"{label}: violated verdicts")
    return problems


def check_corpus_op(op, expect, ref_chart):
    """Problems of one warm-corpus operation.  `expect` is the integrand's
    expected value (a float, or a key of the chart's reference entry)."""
    where = f"{op['chart']}.{op['kind']}"
    out = op["out"]
    if op["kind"] == "curvature":
        problems = []
        for key in ("r_min", "r_max"):
            if not _close(out[key], ref_chart[key], POINTWISE_TOL):
                problems.append(f"{where}.{key}: {out[key]!r} != {ref_chart[key]!r}")
        return problems
    if op["kind"] == "schur":
        if out["verdict"] != "identity-holds" or not out["residual"] <= IDENTITY_TOL:
            return [f"{where}: {out['verdict']} {out['residual']!r}"]
        return []
    if op["kind"] == "field":
        bad = [v for v in out["verdicts"] if v != "identity-holds"]
        bad += [r for r in out["residuals"] if not r <= IDENTITY_TOL]
        return [f"{where}: {bad}"] if bad else []
    if out["exit_code"] != 0:
        return [f"{where}: exit code {out['exit_code']}"]
    if isinstance(expect, str):
        want, scale = ref_chart[expect], ref_chart[expect]
    else:
        want, scale = expect, ref_chart["volume"]
    if not (math.isfinite(out["value"])
            and abs(out["value"] - want) <= INTEGRAL_TOL * max(1.0, abs(scale))):
        return [f"{where}: {out['value']!r} != {want!r}"]
    return []

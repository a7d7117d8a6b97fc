"""Mutant register: one-line mutants of the package and the tests that kill them.

Each entry names a file under ``src/solitonlab``, an exact text that occurs
once in it, its replacement, and what is expected of the mutant: either the
test that kills it (a pytest node id, with or without its
parametrization) or ``survives: item N``, a known gap that ROADMAP item N
owns.

The script first checks that every entry's text occurs exactly once, and
names each one that does not in a single error, before it runs any mutant.
It then copies the package, the tests and what they read into two temporary
directories.  The unmutated copy runs first and must pass.  Then each entry,
two at a time, is applied to one copy, which runs the fast subset:
``tests/test_solitons.py`` plus acceptance criterion 4.  A mutant is killed
when that run fails.

    python scripts/mutants.py [--out MUTANTS.json]

The report holds the git sha of the checkout, whether its sources differed
from that commit, and each entry's outcome with the tests that failed.
The script exits 1 when a mutant expected to be killed survives, or is
killed only by other tests than the one the register names.  A survivor
that gets killed is reported, so that the register can be updated, but
does not fail the run.  Standard library only.
"""

import argparse
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "scripts", "pyproject.toml")
SUBSET = ("tests/test_solitons.py",
          "tests/test_acceptance.py::test_criterion_4_theorem_verdicts")

SOLITONS = "src/solitonlab/solitons.py"
GEOMETRY = "src/solitonlab/geometry.py"
T = "tests/test_solitons.py::"
CRITERION_4 = "tests/test_acceptance.py::test_criterion_4_theorem_verdicts"
WORKERS = 2  # mutants run at once, each in its own copy

REGISTER = [
    {
        "name": "yamabe s = n -> 1",
        "file": SOLITONS,
        "text": "return n, mu,",
        "replacement": "return 1, mu,",
        "killed_by": T + "test_contracted_trace_is_the_residual_trace_less_tr_U[yamabe]",
    },
    {
        "name": "yamabe r_target mu -> n mu",
        "file": SOLITONS,
        "text": "n, mu, (n - 1)",
        "replacement": "n, n * mu, (n - 1)",
        "killed_by": T + "test_contracted_trace_is_the_residual_trace_less_tr_U[yamabe]",
    },
    {
        "name": "yamabe c_dr (n-1)/(2 lambda) -> n/(2 lambda)",
        "file": SOLITONS,
        "text": "(n - 1) / (2 * lam)",
        "replacement": "n / (2 * lam)",
        "killed_by": T + "test_div_lie_conclusion_is_the_residual_divergence"
                         "_over_two_lambda[yamabe]",
    },
    {
        "name": "ricci s = 1 -> n",
        "file": SOLITONS,
        "text": "return 1, n * mu,",
        "replacement": "return n, n * mu,",
        "killed_by": T + "test_contracted_trace_is_the_residual_trace_less_tr_U[ricci]",
    },
    {
        "name": "ricci r_target n mu -> mu",
        "file": SOLITONS,
        "text": "1, n * mu, 1",
        "replacement": "1, mu, 1",
        "killed_by": T + "test_contracted_trace_is_the_residual_trace_less_tr_U[ricci]",
    },
    {
        "name": "ricci c_dr 1/(4 lambda) -> 1/(2 lambda)",
        "file": SOLITONS,
        "text": "1 / (4 * lam)",
        "replacement": "1 / (2 * lam)",
        "killed_by": T + "test_div_lie_conclusion_is_the_residual_divergence"
                         "_over_two_lambda[ricci]",
    },
    {
        "name": "T-SQ coefficient s^2 -> s",
        "file": SOLITONS,
        "text": "s * s / (4 * spec.lam**2)",
        "replacement": "s / (4 * spec.lam**2)",
        "killed_by": T + "test_t_sq_pairing_is_the_residual_trace_pairing[yamabe]",
    },
    {
        "name": "T-1 pairing coefficient s/(2 lambda) -> s/(4 lambda)",
        "file": SOLITONS,
        "text": "ws, tol, notes, s / (2 * spec.lam),",
        "replacement": "ws, tol, notes, s / (4 * spec.lam),",
        "killed_by": T + "test_pairing_integrals_are_the_residual_pairing"
                         "_over_two_lambda[T-1-yamabe]",
    },
    {
        "name": "lemma_hessian c = s/(2 lambda) -> s/(4 lambda)",
        "file": SOLITONS,
        "text": "c = s / (2 * spec.lam)",
        "replacement": "c = s / (4 * spec.lam)",
        "killed_by": T + "test_lemma_hessian_lines_are_the_residual_trace_gradient",
    },
    {
        "name": "T-COR hypothesis lambda int g(grad f, grad r) -> its negative",
        "file": SOLITONS,
        "text": "ws.target.lam * ws.integral(ws.gfr)",
        "replacement": "-ws.target.lam * ws.integral(ws.gfr)",
        "killed_by": T + "test_t_cor_pairing_is_the_residual_trace_pairing",
    },
    {
        "name": "prop_p2 (n-2)/(n-1) -> (n-1)/n",
        "file": SOLITONS,
        "text": "rhs = ((n - 2) / (n - 1)) * ws.hess2",
        "replacement": "rhs = ((n - 1) / n) * ws.hess2",
        "survives": "item 1",
    },
    {
        "name": "T-C without its trace-free gate",
        "file": SOLITONS,
        "text": '"T-C": _Check(_t_c, gates=_TF)',
        "replacement": '"T-C": _Check(_t_c, gates=())',
        "killed_by": T + "test_reports_gate_the_papers_premises[T-C]",
    },
    {
        "name": "T-N2 without its divergence-free gate",
        "file": SOLITONS,
        "text": '"T-N2": _Check(_t_n2, gradient=True, gates=_TF + _DF,',
        "replacement": '"T-N2": _Check(_t_n2, gradient=True, gates=_TF,',
        "killed_by": T + "test_reports_gate_the_papers_premises[T-N2]",
    },
    {
        "name": "div_lie without its constant-trace gate",
        "file": SOLITONS,
        "text": 'gates=("grad_trace_lie2_max",) + _DF)',
        "replacement": "gates=_DF)",
        "killed_by": T + "test_reports_gate_the_papers_premises[div_lie]",
    },
    {
        "name": "P-CSC without its divergence-free gate",
        "file": SOLITONS,
        "text": '"P-CSC": _Check(_p_csc, gradient=True, gates=_DF)',
        "replacement": '"P-CSC": _Check(_p_csc, gradient=True, gates=())',
        "killed_by": T + "test_reports_gate_the_papers_premises[P-CSC]",
    },
    {
        "name": "T-N2 without its n > 2 premise",
        "file": SOLITONS,
        "text": "above_two=True, hess_free=True)",
        "replacement": "hess_free=True)",
        "killed_by": CRITERION_4,
    },
    {
        "name": "hessian without d2Gamma: d^2 Hess f loses its d2Gamma df term",
        "file": GEOMETRY,
        "text": "_own([fr.Gamma, fr.dGamma, fr.d2Gamma], fr.r.ndim)",
        "replacement": "_own([fr.Gamma, fr.dGamma], fr.r.ndim)",
        "killed_by": T + "test_gradient_lie_jets_match_the_vector_route",
    },
]


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def copy_tree(target):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=ignore)
        else:
            shutil.copy2(source, target / name)


def run_subset(tree):
    """Failed test ids of the subset in ``tree``; None if it fails to run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rf", *SUBSET],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not failed):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return failed


def imported_from(tree):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import solitonlab; print(solitonlab.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return Path(out.stdout.strip()).resolve()


def misplaced(register):
    """One line per entry whose text does not occur exactly once in its
    file, so that every stale entry shows before any mutant runs."""
    lines = []
    for entry in register:
        text = (ROOT / entry["file"]).read_text(encoding="utf-8")
        count = text.count(entry["text"])
        if count != 1:
            lines.append(f"{entry['name']}: text occurs {count} times in "
                         f"{entry['file']}, not once")
    return lines


def evaluate(entry, tree):
    path = tree / entry["file"]
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(entry["text"], entry["replacement"]),
                    encoding="utf-8")
    try:
        failed = run_subset(tree)
    finally:
        path.write_text(original, encoding="utf-8")
    if failed is None:
        raise SystemExit(f"{entry['name']}: the test run did not complete")
    outcome = "killed" if failed else "survived"
    if "killed_by" in entry:
        name = entry["killed_by"]
        as_expected = any(f == name or f.startswith(name + "[")
                          for f in failed)
    else:
        as_expected = not failed
    return {**entry, "outcome": outcome, "as_expected": as_expected,
            "failed": failed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "MUTANTS.json"),
                        help="report path (default MUTANTS.json at the root)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    stale = misplaced(REGISTER)
    if stale:
        raise SystemExit("\n".join(stale))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        trees = queue.SimpleQueue()
        for k in range(WORKERS):
            tree = Path(tmp) / str(k)
            copy_tree(tree)
            trees.put(tree)
        if tree.resolve() not in imported_from(tree).parents:
            raise SystemExit("the copy imports solitonlab from outside itself")
        if run_subset(tree) != []:
            raise SystemExit("the unmutated subset does not pass")

        def run(entry):
            tree = trees.get()
            try:
                return evaluate(entry, tree)
            finally:
                trees.put(tree)

        results = []
        with ThreadPoolExecutor(WORKERS) as pool:
            for entry, result in zip(REGISTER, pool.map(run, REGISTER)):
                results.append(result)
                expect = (f"killed by {entry['killed_by']}"
                          if "killed_by" in entry
                          else f"survives: {entry['survives']}")
                flag = "ok" if result["as_expected"] else "UNEXPECTED"
                print(f"{flag:10} {result['outcome']:8} {entry['name']} "
                      f"(expected: {expect})", flush=True)
    report = {
        "sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "tests")),
        "subset": list(SUBSET),
        "killed": sum(r["outcome"] == "killed" for r in results),
        "survived": sum(r["outcome"] == "survived" for r in results),
        "entries": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    print(f"{report['killed']} killed, {report['survived']} survived in "
          f"{time.perf_counter() - start:.0f} s; report in {args.out}")
    missed = [r["name"] for r in results
              if "killed_by" in r and not r["as_expected"]]
    if missed:
        print("expected killed, but not by the named test: "
              + "; ".join(missed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every bundled manifest through the command line tool.

One invocation per manifest per applicable command (describe always, check
when a soliton block is present, fit when a fit block is present), plus a
handful of integrals.  Reports land in --out-dir, one JSON file each, and a
one-line summary per invocation goes to the terminal.  The script's exit
status is the worst exit status seen, so CI can gate on it directly.

Running the suite twice and comparing the report directories byte for byte
is the determinism check.  ``--compare DIR`` checks this run against the
reports of a previous one instead: it prints, per report, every difference
in a non-float field and the largest change of a float, and fails when a
verdict, an exit status or a non-float field differs, or when a float moves
by more than the smallest of the report's tolerances.  Two strings that
differ only in the numbers written inside them, such as a fitted potential
that embeds its coefficients, count as floats: the text around the numbers
must match exactly, and each number is compared as a float.  That is what
holds across BLAS kernels (``OPENBLAS_CORETYPE``) and machines, where bytes
may differ.
"""

import argparse
import io
import json
import math
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

from solitonlab.cli import main as cli_main
from solitonlab.manifest import bundled, bundled_names
from solitonlab.records import asdict
from solitonlab.solitons import Tolerances

INTEGRALS = (
    ("sphere2", "1"),
    ("sphere2", "r"),
    ("sphere2_nonsoliton_yamabe", "ric(gradf,gradf)"),
    ("sphere2_nonsoliton_yamabe", "g(gradf, gradr)"),
    ("sphere2_nonsoliton_yamabe", "lap(f)"),
    ("torus2_killing_vector", "g(xi,xi)"),
    ("warped_sphere", "r^2"),
)


def invocations():
    for name in bundled_names():
        man = bundled(name)
        yield f"{name}__describe", ["describe", name]
        if man.soliton is not None:
            yield f"{name}__check", ["check", name]
        if man.fit is not None:
            yield f"{name}__fit", ["fit", name]
    for k, (name, expression) in enumerate(INTEGRALS):
        yield f"{name}__integral{k}", ["integrate", name, expression]


def _load(path):
    return json.loads(path.read_text()) if path.exists() else None


def _exit_status(report):
    """The command line tool's status for a report: 2 wrote none, 1 has a
    violated verdict, 0 otherwise."""
    if report is None:
        return 2
    return 1 if report.get("verdict_counts", {}).get("violated") else 0


def _tolerance(report):
    """The smallest tolerance a report carries; the defaults if none."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            found.extend(node.get("tolerances", {}).values())
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(report)
    return min(found or asdict(Tolerances()).values())


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# A number written in text, with its sign; digits that end a name ("x1") are
# part of the text.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _text_change(old, new):
    """The largest change of a number between two strings that differ only
    in the numbers written in them; None if the text around them differs."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    pairs = zip(_NUMBER.findall(old), _NUMBER.findall(new))
    return max((change for a, b in pairs
                for *_, change in _differences(float(a), float(b))), default=0.0)


def _differences(old, new, path="$"):
    """Yield (path, old, new, float change or None) for every leaf that
    differs; the change is None for a non-float difference.  A float printed
    without a fraction reads back as an int, so a pair of numbers counts as
    floats unless both are ints."""
    if isinstance(old, dict) and isinstance(new, dict) and list(old) == list(new):
        for key in old:
            yield from _differences(old[key], new[key], f"{path}.{key}")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _differences(a, b, f"{path}[{i}]")
    elif (_is_number(old) and _is_number(new)
          and not (isinstance(old, int) and isinstance(new, int))):
        if old != new and not (math.isnan(old) and math.isnan(new)):
            change = abs(new - old)
            yield path, old, new, change if math.isfinite(change) else math.inf
    elif isinstance(old, str) and isinstance(new, str) and old != new:
        yield path, old, new, _text_change(old, new)
    elif old != new:
        yield path, old, new, None


def compare(old_dir, new_dir, statuses):
    """Print how each report in new_dir moved against old_dir; return 1 if
    any moved beyond what the suite allows, else 0.  ``statuses`` maps each
    label of this run to its exit status."""
    labels = sorted(set(statuses) | {p.stem for p in old_dir.glob("*.json")})
    failed = identical = 0
    for label in labels:
        old = _load(old_dir / f"{label}.json")
        new = (_load(new_dir / f"{label}.json")
               if statuses.get(label, 2) < 2 else None)
        before, after = _exit_status(old), _exit_status(new)
        lines, bad = [], before != after
        if bad:
            lines.append(f"  exit status {before} -> {after}")
        largest = (0.0, None)
        if old is not None and new is not None:
            tol = _tolerance(old)
            for path, a, b, change in _differences(old, new):
                if change is None:
                    lines.append(f"  {path}: {a!r} -> {b!r}")
                    bad = True
                elif change > largest[0]:
                    largest = (change, path)
            if largest[1] is not None:
                lines.append(f"  largest float change {largest[0]:.3g} at "
                             f"{largest[1]} (tolerance {tol:g})")
                bad = bad or largest[0] > tol
        if not lines:
            identical += 1
            continue
        failed += bad
        print(f"{'FAIL' if bad else 'ok  '} {label}")
        print("\n".join(lines))
    print(f"{identical} of {len(labels)} reports unchanged, {failed} beyond "
          f"tolerance against {old_dir}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="suite_reports",
                        help="directory for the JSON reports")
    parser.add_argument("--compare", metavar="DIR",
                        help="reports of a previous run to compare against")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    if args.compare and not Path(args.compare).is_dir():
        parser.error(f"--compare: no directory {args.compare!r}")
    if args.compare and Path(args.compare).resolve() == out_dir.resolve():
        parser.error("--compare needs a directory other than --out-dir")
    out_dir.mkdir(parents=True, exist_ok=True)

    statuses = {}
    for label, argv_cli in invocations():
        target = out_dir / f"{label}.json"
        sink = io.StringIO()
        with redirect_stdout(sink):
            statuses[label] = cli_main(argv_cli + ["--out", str(target)])
        print(f"[{statuses[label]}] {label}")
    worst = max(statuses.values())
    print(f"reports in {out_dir} (worst exit status {worst})")
    if args.compare:
        worst = max(worst, compare(Path(args.compare), out_dir, statuses))
    return worst


if __name__ == "__main__":
    sys.exit(main())

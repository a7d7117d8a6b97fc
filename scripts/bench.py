"""Time the jet layer: one truncated product and one composition.

For each case below (dimension, order, node count: the default grids of
torus2, sphere2 and the 16^3 charts), the script times ``a * b`` for two
dense jets and ``sin(a)``, which runs ``Jet.compose`` and its powers, and
records the median of ``--repeats`` runs of each.  A fixed numpy kernel
that no change to solitonlab can move is timed next to every case, so a
reader can tell a slow host from slow code.

Only the public ``jets`` API (``seed``, ``sin``, ``*``) is used, so the same
script times any source tree: it imports whichever ``solitonlab`` is on
``PYTHONPATH``.  The set is stored under ``--label`` in ``--out``; sets under
other labels stay, so two trees sit side by side in one file::

    PYTHONPATH=/path/to/parent/src python3 scripts/bench.py --label parent
    PYTHONPATH=src python3 scripts/bench.py --label change
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from solitonlab import jets

CASES = (  # (dim, order, nodes)
    (2, 4, 16384),
    (2, 4, 8192),
    (3, 3, 4096),
    (3, 4, 4096),
)


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def host_kernel():
    x = np.linspace(0.0, 1.0, 200_000)
    return float(np.sum(np.sin(x) * np.cos(x)))


def dense_jets(dim, order, nodes):
    """Two jets with every coefficient nonzero at ``nodes`` random points."""
    x = np.random.default_rng(0).uniform(0.2, 1.0, size=(nodes, dim))
    xs = [jets.seed(dim, x, i, order) for i in range(dim)]
    total = xs[0]
    for xi in xs[1:]:
        total = total + xi
    a = jets.sin(total)
    b = jets.sin(total * xs[-1] + xs[0])
    return a, b


def source_tree():
    """Git commit of the source tree that solitonlab was imported from, and
    whether that tree has uncommitted changes."""
    where = Path(jets.__file__).resolve().parent

    def git(*args):
        run = subprocess.run(["git", "-C", str(where), *args],
                             capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else None

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "."))


def measure(repeats):
    sha, dirty = source_tree()
    cases = []
    for dim, order, nodes in CASES:
        a, b = dense_jets(dim, order, nodes)
        cases.append({
            "dim": dim, "order": order, "nodes": nodes,
            "mul_ms": median_ms(lambda: a * b, repeats),
            "sin_ms": median_ms(lambda: jets.sin(a), repeats),
            "host_kernel_ms": median_ms(host_kernel, repeats),
        })
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "repeats": repeats,
        "cases": cases,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="name of this set in the file, e.g. parent or change")
    parser.add_argument("--out", type=Path, default=Path("BENCH_1.json"))
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["layer"] = "jets"
    data["unit"] = "ms, median of repeats"
    data.setdefault("sets", {})[args.label] = measure(args.repeats)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    for case in data["sets"][args.label]["cases"]:
        print(f"{args.label}: dim {case['dim']} order {case['order']} "
              f"nodes {case['nodes']}: mul {case['mul_ms']:.2f} ms, "
              f"sin {case['sin_ms']:.2f} ms, host {case['host_kernel_ms']:.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

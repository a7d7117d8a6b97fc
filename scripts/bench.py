"""Time the jet, geometry, fit or import layer, parent and change side by side.

``--layer jets`` (``BENCH_1.json``): for each case of ``CASES`` (dimension,
order, node count: the default grids of torus2, sphere2 and the 16^3
charts), the script times ``a * b`` for two dense jets and ``sin(a)``, which
runs ``Jet.compose`` and its powers.

``--layer geometry`` (``BENCH_2.json``; ``BENCH_7.json`` holds the sets
with ``hessian``): for each bundled chart of ``GEOMETRY_CASES`` on its
default grid, the script times ``frame`` and the order-4 ``scalar_jets`` of
three seeded potentials, each a random combination of trigonometric terms
in the chart's coordinates.  On those jets it times ``hessian`` for k = 0,
1 and 2, and records the tracemalloc peak of one ``hessian`` with k = 2,
its result included, next to the result's size.

``--layer fit`` (``BENCH_3.json``): for each problem of ``FIT_CASES`` (a
bundled chart and grid, a soliton kind and a basis of K terms), the script
times the ``FitProblem`` set-up, one ``residual_stack`` at a seeded start
and a whole fit from that start, set-up and the final full-grid objective
included (the workspace cache is cleared first, so each repeat builds it).

``--layer import`` (``BENCH_4.json``): the script times ``import
solitonlab.cli`` after ``import numpy`` in fresh interpreters, after one
untimed run, and records whether every module's bytecode was cached, that
is whether the interpreters read ``__pycache__`` or compiled the sources.

``--layer workspace`` (``BENCH_5.json``): in fresh interpreters, the script
builds the frames of the charts of ``WORKSPACE_CASES`` on their default
grids, then runs the library loop over them: per chart the field
identities of a soliton with a seeded potential, ``identity_trace_lie2`` on
a seeded vector field and the integrands of ``INTEGRANDS``.  It records the
loop's time, the interpreter's peak RSS and the workspace cache's hits,
misses and final size.

Each figure is the median of ``--repeats`` runs.  A fixed numpy kernel that
no change to solitonlab can move is timed next to every case, so a reader
can tell a slow host from slow code.

Only the public API is used (``jets.seed``, ``jets.sin``, ``*``, the bundled
manifests, ``grid_nodes``, ``frame``, ``scalar_jets``, ``hessian``,
``FitProblem`` and its ``residual_stack`` and ``fit``), so the same script
times any source tree: it imports whichever ``solitonlab`` is on
``PYTHONPATH``.  The set is stored under ``--label`` in ``--out``; sets under
other labels stay, so two trees sit side by side in one file::

    PYTHONPATH=/path/to/parent/src python3 scripts/bench.py --label parent
    PYTHONPATH=src python3 scripts/bench.py --label change
    PYTHONPATH=src python3 scripts/bench.py --layer geometry --label change
    PYTHONPATH=src python3 scripts/bench.py --layer geometry --label change --out BENCH_7.json
    PYTHONPATH=src python3 scripts/bench.py --layer fit --label change
    PYTHONPATH=src python3 scripts/bench.py --layer import --label change
    PYTHONPATH=src python3 scripts/bench.py --layer workspace --label change
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from solitonlab import jets
from solitonlab.fitting import BasisExpansion, FitInit, FitProblem
from solitonlab.geometry import frame, hessian, scalar_field, scalar_jets
from solitonlab.manifest import bundled
from solitonlab.quadrature import default_grid, grid_nodes
from solitonlab.solitons import workspace

CASES = (  # (dim, order, nodes)
    (2, 4, 16384),
    (2, 4, 8192),
    (3, 3, 4096),
    (3, 4, 4096),
)

# (bundled chart, node counts); None is the chart's default grid.
GEOMETRY_CASES = (
    ("sphere2", None),
    ("torus2", None),
    ("sphere3", None),
    ("torus3", None),
    ("product_s2_s1", None),
)
POTENTIALS = 3

# (bundled chart, node counts, kind, basis family, degree): K = 5, 13 and 9
# terms; the first is torus2_fit_ricci's grid and basis.  None is the
# chart's default grid.
FIT_CASES = (
    ("torus2", (64, 64), "ricci", "fourier", 1),
    ("torus2", (64, 64), "ricci", "fourier", 2),
    ("sphere2", None, "yamabe", "product", 2),
)

# (bundled chart, node counts): the six base charts of the library loop.
WORKSPACE_CASES = (
    ("sphere2", None),
    ("sphere3", None),
    ("torus2", None),
    ("torus3", None),
    ("product_s2_s1", None),
    ("warped_sphere", None),
)
# {s} is a second seeded potential, read as a coordinate expression.
INTEGRANDS = ("1", "r", "lap(f)", "lap({s})", "g(gradf,gradf) + f*lap(f)",
              "norm2_hess(f) + ric(gradf,gradf) - lap(f)^2")


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


def seeded_potentials(coords, count):
    """``count`` potentials with random coefficients, each using every
    coordinate alone and every pair of them."""
    rng = np.random.default_rng(7)
    terms = [f"{fn}({c})" for c in coords for fn in ("sin", "cos")]
    terms += [f"sin({a})*cos({b})" for k, a in enumerate(coords)
              for b in coords[k + 1:]]
    return [" + ".join(f"({c:.3f})*{t}" for c, t in
                       zip(rng.uniform(-1.0, 1.0, len(terms)), terms))
            for _ in range(count)]


def traced_peak_mib(fn):
    """Peak of the heap that tracemalloc sees while ``fn`` runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def jet_cases(repeats):
    cases = []
    for dim, order, nodes in CASES:
        a, b = dense_jets(dim, order, nodes)
        cases.append({
            "dim": dim, "order": order, "nodes": nodes,
            "mul_ms": median_ms(lambda: a * b, repeats),
            "sin_ms": median_ms(lambda: jets.sin(a), repeats),
            "host_kernel_ms": median_ms(host_kernel, repeats),
        })
    return cases


def geometry_cases(repeats):
    cases = []
    for name, counts in GEOMETRY_CASES:
        ch = bundled(name).chart
        spec = default_grid(ch, counts)
        x, _ = grid_nodes(ch, spec)
        fields = [scalar_field(ch, text)
                  for text in seeded_potentials(ch.coords, POTENTIALS)]
        fr = frame(ch, x)
        sjs = [scalar_jets(f, x, order=4) for f in fields]
        case = {
            "chart": name, "grid": list(spec.counts),
            "nodes": int(np.prod(spec.counts)),
            "frame_ms": median_ms(lambda: frame(ch, x), repeats),
            "field_jets_ms": median_ms(
                lambda: [scalar_jets(f, x, order=4) for f in fields], repeats),
        }
        for k in range(3):
            case[f"hessian_k{k}_ms"] = median_ms(
                lambda: [hessian(fr, sj, k) for sj in sjs], repeats)
        case["hessian_k2_peak_mib"] = traced_peak_mib(
            lambda: hessian(fr, sjs[0], 2))
        case["hessian_k2_result_mib"] = hessian(fr, sjs[0], 2).nbytes / 2**20
        case["potentials"] = [f.source for f in fields]
        case["host_kernel_ms"] = median_ms(host_kernel, repeats)
        cases.append(case)
    return cases


def fit_cases(repeats):
    cases = []
    for name, counts, kind, family, degree in FIT_CASES:
        ch = bundled(name).chart
        grid = default_grid(ch, counts)
        basis = BasisExpansion(ch, family, degree)
        terms = basis.terms()
        rng = np.random.default_rng(3)
        init = FitInit(coefficients=tuple(
            float(c) for c in rng.uniform(-0.1, 0.1, len(terms))),
            lam=1.0, mu=0.25)
        problem = FitProblem(kind, basis, grid=grid)

        def whole_fit():
            workspace.cache_clear()
            return FitProblem(kind, basis, grid=grid).fit(init)

        cases.append({
            "chart": name, "grid": list(grid.counts), "kind": kind,
            "basis": family, "degree": degree, "terms": len(terms),
            "fit_nodes": int(np.prod(problem.fit_grid.counts)),
            "iterations": whole_fit().iterations,
            "setup_ms": median_ms(
                lambda: FitProblem(kind, basis, grid=grid), repeats),
            "residual_stack_ms": median_ms(
                lambda: problem.residual_stack(init.coefficients, init.lam,
                                               init.mu), repeats),
            "fit_ms": median_ms(whole_fit, repeats),
            "host_kernel_ms": median_ms(host_kernel, repeats),
        })
    return cases


IMPORT_CHILD = """
import time
start = time.perf_counter()
import numpy
middle = time.perf_counter()
import solitonlab.cli
print(middle - start, time.perf_counter() - middle)
"""


def bytecode_cached(package):
    """Whether every module of ``package`` has bytecode that Python accepts
    for its source: a .pyc whose header holds the source's mtime and size."""
    for source in package.glob("*.py"):
        pyc = Path(importlib.util.cache_from_source(str(source)))
        st = source.stat()
        stamp = struct.pack("<II", int(st.st_mtime) & 0xFFFFFFFF,
                            st.st_size & 0xFFFFFFFF)
        if not pyc.exists() or pyc.read_bytes()[8:16] != stamp:
            return False
    return True


def import_cases(repeats):
    package = Path(jets.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))

    def child():
        run = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=env,
                             capture_output=True, text=True, check=True)
        return [float(v) for v in run.stdout.split()]

    child()  # writes bytecode wherever this interpreter may
    times = [child() for _ in range(repeats)]
    return [{
        "module": "solitonlab.cli",
        "bytecode_cached": bytecode_cached(package),
        "numpy_ms": 1e3 * statistics.median(t[0] for t in times),
        "import_ms": 1e3 * statistics.median(t[1] for t in times),
        "host_kernel_ms": median_ms(host_kernel, repeats),
    }]


WORKSPACE_CHILD = """
import json, resource, sys, time
from solitonlab.cli import cmd_integrate
from solitonlab.geometry import scalar_field, vector_field
from solitonlab.manifest import Manifest, bundled
from solitonlab.quadrature import default_grid
from solitonlab.solitons import (SolitonSpec, grid_frame, identity_bochner,
                                 identity_div_lie, identity_trace_lie2,
                                 workspace)

plan = json.loads(sys.argv[1])
grids = []
for entry in plan:
    ch = bundled(entry["chart"]).chart
    grids.append((ch, default_grid(ch, tuple(entry["counts"]))))
    grid_frame(*grids[-1])
start = time.perf_counter()
for entry, (ch, grid) in zip(plan, grids):
    spec = SolitonSpec(name=ch.name, chart=ch, kind="yamabe", lam=1.0, mu=0.0,
                       potential=scalar_field(ch, entry["potential"]))
    for check in (identity_trace_lie2, identity_bochner, identity_div_lie):
        check(spec, grid)
    identity_trace_lie2(vector_field(ch, entry["vector"]), grid)
    man = Manifest(name=ch.name, chart=ch, soliton=spec, fit=None)
    for text in entry["integrands"]:
        cmd_integrate(man, text, grid)
loop = time.perf_counter() - start
info = workspace.cache_info()
print(json.dumps({"loop_s": loop, "hits": info.hits, "misses": info.misses,
                  "currsize": info.currsize, "maxrss_kib":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def workspace_cases(repeats):
    package = Path(jets.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    plan = []
    for name, counts in WORKSPACE_CASES:
        ch = bundled(name).chart
        potential, other, *vector = seeded_potentials(ch.coords, 2 + ch.dim)
        plan.append({"chart": name,
                     "counts": list(default_grid(ch, counts).counts),
                     "potential": potential, "vector": vector,
                     "integrands": [t.format(s=other) for t in INTEGRANDS]})

    def child():
        run = subprocess.run([sys.executable, "-c", WORKSPACE_CHILD,
                              json.dumps(plan)], env=env, capture_output=True,
                             text=True, check=True)
        return json.loads(run.stdout)

    runs = [child() for _ in range(repeats)]
    cache = {(r["hits"], r["misses"], r["currsize"]) for r in runs}
    if len(cache) != 1:
        raise RuntimeError(f"workspace cache counts differ between runs: {cache}")
    [(hits, misses, currsize)] = cache
    return [{
        "charts": [[entry["chart"], entry["counts"]] for entry in plan],
        "loop_ms": 1e3 * statistics.median(r["loop_s"] for r in runs),
        "peak_rss_mib": statistics.median(r["maxrss_kib"] for r in runs) / 1024,
        "hits": hits, "misses": misses, "currsize": currsize,
        "host_kernel_ms": median_ms(host_kernel, repeats),
    }]


LAYERS = {  # layer -> (case timer, default output, line per case)
    "jets": (jet_cases, "BENCH_1.json",
             lambda c: f"dim {c['dim']} order {c['order']} nodes {c['nodes']}: "
                       f"mul {c['mul_ms']:.2f} ms, sin {c['sin_ms']:.2f} ms"),
    "geometry": (geometry_cases, "BENCH_2.json",
                 lambda c: f"{c['chart']} nodes {c['nodes']}: frame "
                           f"{c['frame_ms']:.2f} ms, {POTENTIALS} field jets "
                           f"{c['field_jets_ms']:.2f} ms, {POTENTIALS} hessians "
                           f"k = 0, 1, 2 {c['hessian_k0_ms']:.2f}, "
                           f"{c['hessian_k1_ms']:.2f}, {c['hessian_k2_ms']:.2f} "
                           f"ms, k = 2 peak {c['hessian_k2_peak_mib']:.2f} MiB "
                           f"for {c['hessian_k2_result_mib']:.2f} MiB"),
    "fit": (fit_cases, "BENCH_3.json",
            lambda c: f"{c['chart']} {c['basis']} {c['degree']} K {c['terms']} "
                      f"fit nodes {c['fit_nodes']}: set-up {c['setup_ms']:.2f} ms, "
                      f"residual stack {c['residual_stack_ms']:.2f} ms, "
                      f"fit {c['fit_ms']:.2f} ms ({c['iterations']} iterations)"),
    "import": (import_cases, "BENCH_4.json",
               lambda c: f"import {c['module']} after numpy "
                         f"{c['import_ms']:.2f} ms (numpy {c['numpy_ms']:.2f} ms, "
                         f"bytecode {'cached' if c['bytecode_cached'] else 'compiled'})"),
    "workspace": (workspace_cases, "BENCH_5.json",
                  lambda c: f"library loop on {len(c['charts'])} charts "
                            f"{c['loop_ms']:.2f} ms, peak RSS "
                            f"{c['peak_rss_mib']:.1f} MiB, workspace hits "
                            f"{c['hits']} misses {c['misses']} size "
                            f"{c['currsize']}"),
}


def measure(layer, repeats):
    sha, dirty = source_tree()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "repeats": repeats,
        "cases": LAYERS[layer][0](repeats),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layer", choices=sorted(LAYERS), default="jets")
    parser.add_argument("--label", required=True,
                        help="name of this set in the file, e.g. parent or change")
    parser.add_argument("--out", type=Path,
                        help="output file; BENCH_1.json for jets, BENCH_2.json "
                             "for geometry, BENCH_3.json for fit, BENCH_4.json "
                             "for import, BENCH_5.json for workspace")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    _, default_out, line = LAYERS[args.layer]
    out = args.out or Path(default_out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data["layer"] = args.layer
    data["unit"] = "ms, or MiB for *_mib, median of repeats"
    data.setdefault("sets", {})[args.label] = measure(args.layer, args.repeats)
    out.write_text(json.dumps(data, indent=2) + "\n")
    for case in data["sets"][args.label]["cases"]:
        print(f"{args.label}: {line(case)}, host {case['host_kernel_ms']:.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""solitonlab benchmark: cold CLI checks, CLI fits and a warm field corpus.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload cli-check --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):

* ``cli-check``: one cold process per ``solitonlab`` invocation: ``check`` on
  the 9 bundled soliton manifests and on two generated manifests, ``describe``
  on the 6 base charts and the 7 integrals of ``scripts/run_suite.py``.
* ``cli-fit``: one cold ``fit`` process for each bundled fit manifest, with
  seeded starting values.
* ``warm-corpus``: one process per pass running a library loop over the six
  base charts on warm frames.

The generator is a closed loop with one client: each process starts after the
previous one has exited.  A pass is a fixed list of tasks, one child process
each.  After an untimed warm-up a run makes one whole pass and then keeps
cycling through the list, task by task, while the next task is expected to end
within ``--seconds``.  Each task's wall time is the median of its repetitions,
and a pass is reported as the sum of those medians.  Every time is divided by
the slowdown of the shared host that the child measured next to its work
(``speed.py``), so the figures are seconds at the host's quiet speed; the
table also prints them unscaled.  The run then takes extra set-up samples
until it has ``SETUP_SAMPLES``.  With
``--trace 1`` it runs one untraced and one traced pass, prints the per-layer
metrics of the traced pass and fails if a layer predicted active recorded no
work or one predicted idle recorded some.

Every operation's output is checked (``oracle.py``).  The last line of
standard output is the JSON result; the lines before it are a readable table
and the environment.  Full records go to ``.perfbench/results/``.
"""

import argparse
import compileall
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import CHECK_IDS  # noqa: E402

WORKLOADS = ("cli-check", "cli-fit", "warm-corpus")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
# Both cores of an idle machine run markedly slower for the first seconds of
# load, so each run first keeps them busy, untimed, for this long.
WARM_UP_S = 2.0

# Per-layer predictions: metric prefix -> workloads on which it must record
# work.  On every other workload it must record none.
ALL = set(WORKLOADS)
ACTIVE = {
    "jets.mul": ALL,
    "jets.unary": ALL,
    "expr.evaluate": ALL,
    "geometry.frame": ALL,
    "geometry.scalar_jets": ALL,
    "geometry.vector_jets": {"cli-check", "warm-corpus"},
    "geometry.gradient_vector_jets": ALL,
    "geometry.lie_metric_jets": ALL,
    "geometry.einsum": ALL,
    "quadrature.grid_nodes": ALL,
    "solitons.grid_frame": ALL,
    "solitons.workspace": ALL,
    "solitons.run_check": {"cli-check", "cli-fit"},
    "fitting": {"cli-fit"},
    "manifest.load": ALL,
    "cli.render_json": {"cli-check", "cli-fit"},
    "cli.integrate": {"cli-check", "warm-corpus"},
}
CORPUS_CHECKS = {"trace_lie2", "bochner", "div_lie", "schur"}

# Spans reported as <name>_calls, <name>_s and <name>_self_s.
SPAN_LAYERS = (
    "jets.mul", "jets.unary", "expr.evaluate", "geometry.frame",
    "geometry.scalar_jets", "geometry.vector_jets",
    "geometry.gradient_vector_jets", "geometry.lie_metric_jets",
    "solitons.workspace", "solitons.run_check", "fitting.residual_stack",
    "fitting.jacobian",
)


class BenchError(RuntimeError):
    pass


# ------------------------------------------------------------------ children


class Runner:
    """Starts child interpreters one at a time from the checkout root."""

    def __init__(self, root):
        self.root = root
        env = dict(os.environ)
        self.soliton_threads_set = env.pop("SOLITON_THREADS", None) is not None
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def run(self, kind, trace=False, **fields):
        task = dict(fields, kind=kind, root=str(self.root), trace=trace)
        task["t0"] = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(task)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{kind} timed out after {CHILD_TIMEOUT_S} s",
                    "wall_s": time.perf_counter() - task["t0"]}
        wall = time.perf_counter() - task["t0"]
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-5:]
            return {"error": f"{kind} exited {proc.returncode}: {' | '.join(tail)}",
                    "wall_s": wall}
        out = json.loads(lines[-1])
        # Times are reported at the host's quiet speed (see speed.py); the
        # probe's own time is not part of the task.
        out["wall_s"] = wall - out["probe_s"]
        return out


# ----------------------------------------------------------------- workloads


class CliCheck:
    name = "cli-check"

    def __init__(self, root, work, seed):
        self.reference = oracle.load_reference()["invocations"]
        self.tasks = []
        for name in inputs.SOLITON_MANIFESTS:
            self.tasks.append((f"{name}__check", ["check", name]))
        for name in inputs.BASE_CHARTS:
            self.tasks.append((f"{name}__describe", ["describe", name]))
        for k, (name, text) in enumerate(inputs.SUITE_INTEGRALS):
            self.tasks.append((f"{name}__integral{k}", ["integrate", name, text]))
        for label, path in inputs.write_check_manifests(root, work, seed).items():
            self.tasks.append((f"{label}__check", ["check", path]))

    def setup_sample(self, runner):
        return runner.run("import")

    def run_task(self, runner, task, trace):
        label, argv = task
        out = runner.run("cli", trace=trace, argv=argv)
        out["label"], out["command"] = label, argv[0]
        return out

    def problems(self, out):
        if "error" in out:
            return [f"{out['label']}: {out['error']}"]
        try:
            report = json.loads(out["report"])
        except json.JSONDecodeError:
            return [f"{out['label']}: exit code {out['exit_code']}, no JSON report"]
        return self.check(out, report)

    def check(self, out, report):
        if out["label"].startswith("generated_"):
            return oracle.check_generated(out["label"], out["exit_code"], report)
        return oracle.compare(out["label"], out["command"], out["exit_code"],
                              report, self.reference[out["label"]])

    def operations(self, results):
        return [(out, self.problems(out)) for out in results]

    def extras(self, samples):
        """Per command, the summed median `cli.main` time of its tasks."""
        by = {}
        for label, outs in _by_label(samples).items():
            key = f"{outs[0]['command']}_s"
            by[key] = by.get(key, 0.0) + _median([_scaled(o, "main_s") for o in outs])
        return dict(sorted(by.items()))

    def grids(self, results):
        return {out["label"]: json.loads(out["report"]).get("grid")
                for out in results if out.get("report")}


class CliFit(CliCheck):
    name = "cli-fit"

    def __init__(self, root, work, seed):
        paths = inputs.write_fit_manifests(root, work, seed)
        self.tasks = [(f"{name}__fit", ["fit", paths[name]])
                      for name in inputs.FIT_MANIFESTS]

    def check(self, out, report):
        return oracle.check_fit(out["label"], out["exit_code"], report)

    def grids(self, results):
        grids = {}
        for out in results:
            if out.get("report"):
                result = json.loads(out["report"])["result"]
                grids[out["label"]] = {"grid": result["grid"],
                                       "fit_grid": result["fit_grid"]}
        return grids


class WarmCorpus:
    name = "warm-corpus"

    def __init__(self, root, work, seed):
        self.plan = inputs.corpus_plan(seed)
        self.charts = oracle.load_reference()["charts"]
        self.expect = {}
        for entry in self.plan:
            self.expect[entry["chart"]] = [e for _, e in entry["integrands"]]
        self.n_ops = sum(2 + len(e["potentials"]) + len(e["vectors"])
                         + len(e["integrands"]) for e in self.plan)
        self.tasks = [("corpus", None)]

    def setup_sample(self, runner):
        return runner.run("setup", plan=self.plan)

    def run_task(self, runner, task, trace):
        out = runner.run("corpus", trace=trace, plan=self.plan)
        out["label"] = task[0]
        return out

    def operations(self, results):
        ops = []
        for out in results:
            if "error" in out:
                ops += [(out, [f"warm-corpus: {out['error']}"])] * self.n_ops
                continue
            seen = {}
            for op in out["ops"]:
                expect = None
                if op["kind"] == "integral":
                    k = seen.get(op["chart"], 0)
                    seen[op["chart"]] = k + 1
                    expect = self.expect[op["chart"]][k]
                manifest = next(e["manifest"] for e in self.plan
                                if e["chart"] == op["chart"])
                ops.append((op, oracle.check_corpus_op(
                    op, expect, self.charts[manifest])))
        return ops

    def extras(self, samples):
        """Medians over the run's passes of fields and integrals per second."""
        rates = {"fields_per_s": [], "integrals_per_s": []}
        for out in samples:
            t = {}
            for op in out.get("ops", ()):
                row = t.setdefault(op["kind"], [0, 0.0])
                row[0] += 1
                row[1] += op["s"] / op["slowdown"]
            if t:
                rates["fields_per_s"].append(t["field"][0] / t["field"][1])
                rates["integrals_per_s"].append(t["integral"][0] / t["integral"][1])
        return {k: _median(v) for k, v in rates.items()}

    def grids(self, results):
        return results[0].get("grids", {})


# ------------------------------------------------------------------ metrics


def _median(values):
    return statistics.median(values) if values else float("nan")


def _by_label(samples):
    """Completed samples by task label."""
    by = {}
    for out in samples:
        if "error" not in out:
            by.setdefault(out["label"], []).append(out)
    return by


def _scaled(out, key):
    """`out[key]` at the host's quiet speed (see speed.py).  Set-up is
    scaled by the probe samples around it, corpus operations one by one,
    each by its own slowdown."""
    if key == "setup_s":
        return out[key] / out["setup_slowdown"]
    if "ops" in out:
        work = sum(op["s"] / op["slowdown"] for op in out["ops"])
    else:
        work = out["main_s"] / out["slowdown"]
    if key == "main_s":
        return work
    return work + (out["wall_s"] - out["main_s"]) / out["slowdown"]


def end_to_end(workload, samples, setups):
    """Per task the median over its repetitions, summed over the pass; every
    time at the host's quiet speed.  Also returns the same figures unscaled."""
    by = _by_label(samples)
    setups = [out for out in setups if "setup_s" in out]
    rss = [out["maxrss_kib"] for out in samples + setups if "maxrss_kib" in out]
    metrics, raw = {}, {}
    for figures, value in ((metrics, _scaled), (raw, lambda o, k: o[k])):
        figures["setup_s"] = _median([value(o, "setup_s") for o in setups])
        for name, key in (("pass_s", "wall_s"), ("work_s", "main_s")):
            figures[name] = sum(_median([value(o, key) for o in outs])
                                for outs in by.values())
    metrics["peak_rss_mib"] = max(rss) / 1024.0 if rss else float("nan")
    raw["host_slowdown"] = _median([o["slowdown"] for o in samples + setups
                                    if "slowdown" in o])
    return metrics, raw, workload.extras(samples)


def per_layer(summaries):
    """Sum the traced children's summaries into the per-layer metrics."""
    stats, counts, einsum, frame_grids = {}, {}, {}, 0
    for s in summaries:
        for name, row in s["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in s["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for where, row in s["einsum"].items():
            acc = einsum.setdefault(where, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        frame_grids += s["frame_grids"]

    def span(name):
        return stats.get(name, [0, 0.0, 0.0])

    m = {}
    for name in SPAN_LAYERS:
        m[f"{name}_calls"], m[f"{name}_s"], m[f"{name}_self_s"] = span(name)
    rows = list(einsum.values())
    m["geometry.einsum_calls"] = sum(r[0] for r in rows)
    m["geometry.einsum_s"] = sum(r[1] for r in rows)
    m["geometry.einsum_flops"] = sum(r[2] for r in rows)
    in_frame = einsum.get("geometry.frame", [0, 0.0, 0.0])
    m["geometry.einsum_frame_s"] = in_frame[1]
    m["geometry.einsum_frame_flops"] = in_frame[2]
    in_grad = einsum.get("geometry.gradient_vector_jets", [0, 0.0, 0.0])
    m["geometry.einsum_gradient_vector_jets_s"] = in_grad[1]
    m["geometry.frame_bytes"] = counts.get("geometry.frame_bytes", 0)
    for cache in ("quadrature.grid_nodes", "solitons.grid_frame"):
        m[f"{cache}_hits"] = counts.get(f"{cache}_hits", 0)
        m[f"{cache}_misses"] = counts.get(f"{cache}_misses", 0)
    frames = span("geometry.frame")[0]
    m["solitons.frames_per_grid"] = frames / frame_grids if frame_grids else 0.0
    m["solitons.workspace_misses"] = counts.get("solitons.workspace_misses", 0)
    for check_id in CHECK_IDS:
        m[f"solitons.check.{check_id}_s"] = span(f"solitons.check.{check_id}")[1]
    m["fitting.problem_setup_s"] = span("fitting.problem_setup")[1]
    jac_s = span("fitting.jacobian")[1]
    m["fitting.jacobian_parallelism"] = (
        counts.get("fitting.jacobian_columns_s", 0.0) / jac_s if jac_s else 0.0)
    m["fitting.lm_iterations"] = counts.get("fitting.lm_iterations", 0)
    trials = counts.get("fitting.lm_trials", 0)
    m["fitting.lm_trials"] = trials
    m["fitting.lm_accept_ratio"] = (
        counts.get("fitting.lm_accepted", 0) / trials if trials else 0.0)
    m["manifest.load_s"] = span("manifest.load")[1]
    m["cli.render_json_s"] = span("cli.render_json")[1]
    m["cli.integrate_self_s"] = span("cli.cmd_integrate")[2]
    detail = {"spans": stats, "counts": counts, "einsum_by_span": einsum}
    return m, detail


def coverage_problems(workload_name, m):
    """Active layers must have recorded work, idle ones none."""
    problems = []
    for prefix, active in ACTIVE.items():
        keys = [k for k in m if k.startswith(prefix)]
        recorded = any(m[k] for k in keys)
        if workload_name in active and not recorded:
            problems.append(f"{prefix}: predicted active, recorded no work")
        if workload_name not in active and recorded:
            problems.append(f"{prefix}: predicted idle, recorded work")
    for check_id in CHECK_IDS:
        active = workload_name != "warm-corpus" or check_id in CORPUS_CHECKS
        recorded = m[f"solitons.check.{check_id}_s"] > 0
        if active != recorded:
            state = "active" if active else "idle"
            problems.append(f"solitons.check.{check_id}: predicted {state}")
    return problems


def self_time_check(summaries):
    """Within each single-threaded root span the self times telescope to the
    root's wall time; returns (roots checked, worst gap in s, traced s)."""
    worst, checked, traced = 0.0, 0, 0.0
    for s in summaries:
        for root in s["roots"]:
            traced += root["wall_s"]
            if root["multithread"]:
                continue
            checked += 1
            worst = max(worst, abs(root["self_sum_s"] - root["wall_s"]))
    return checked, worst, traced


# ----------------------------------------------------------------------- run


def environment(root, runner):
    import numpy
    env = {
        "git_sha": None,
        "source_sha256": _source_hash(root),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "soliton_threads_set": runner.soliton_threads_set,
    }
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            env["git_sha"] = proc.stdout.strip()
    return env


def _source_hash(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "solitonlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def warm_up(root):
    """Spin one core here and one in a child for WARM_UP_S."""
    spin = ("import time\nend = time.perf_counter() + %r\n"
            "while time.perf_counter() < end: pass\n" % WARM_UP_S)
    child = subprocess.Popen([sys.executable, "-c", spin], cwd=root)
    exec(spin, {})
    child.wait()


def measure(workload, runner, seconds, trace):
    """One whole untraced pass, then further tasks in pass order while the
    next is expected to end within `seconds`; or, when tracing, one untraced
    and one traced pass.  Returns (samples, setups, traced samples)."""
    tasks = workload.tasks
    samples, last_wall = [], {}
    start = time.perf_counter()
    for i in itertools.count():
        label = tasks[i % len(tasks)][0]
        if i >= len(tasks) and (trace or time.perf_counter() - start
                                + last_wall[label] > seconds):
            break
        out = workload.run_task(runner, tasks[i % len(tasks)], trace=False)
        samples.append(out)
        last_wall[label] = out["wall_s"]
    setups = list(samples)
    while sum("setup_s" in out for out in setups) < SETUP_SAMPLES:
        setups.append(workload.setup_sample(runner))
    traced = []
    if trace:
        traced = [workload.run_task(runner, task, trace=True) for task in tasks]
    return samples, setups, traced


def run_workload(name, root, work, seed, seconds, trace, runner):
    cls = {"cli-check": CliCheck, "cli-fit": CliFit, "warm-corpus": WarmCorpus}[name]
    workload = cls(root, work, seed)
    warm_up(root)
    samples, setups, traced = measure(workload, runner, seconds, trace)
    ops = workload.operations(samples + traced)
    failures = [p for _, problems in ops for p in problems]
    failed = sum(1 for _, problems in ops if problems)
    first = samples[:len(workload.tasks)]
    e2e, unscaled, extras = end_to_end(workload, samples, setups)
    reps = [len(outs) for outs in _by_label(samples).values()]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "samples": len(samples), "reps": [min(reps), max(reps)],
        "attempted": len(ops), "failed": failed,
        "failed_ratio": failed / len(ops), "failures": failures[:50],
        "end_to_end": e2e, "unscaled": unscaled, "by_command": extras,
        "setup_samples_s": [o["setup_s"] for o in setups if "setup_s" in o],
        "node_counts": workload.grids(first),
        "tasks": [{k: v for k, v in out.items() if k not in ("report", "ops", "trace")}
                  for out in samples + traced],
    }
    if traced:
        summaries = [out["trace"] for out in traced if "trace" in out]
        if len(summaries) != len(traced):
            raise BenchError("a traced child failed: "
                             + "; ".join(out.get("error", "") for out in traced))
        layers, detail = per_layer(summaries)
        checked, worst, traced_s = self_time_check(summaries)
        untraced_s = sum(out.get("main_s", 0.0) for out in first)
        spans = [{"task": i, "spans": s.pop("spans")} for i, s in enumerate(summaries)]
        record.update({
            "per_layer": layers, "trace_detail": detail, "spans": spans,
            "binding_sites": summaries[0]["sites"],
            "tracing_overhead_s": (sum(_scaled(out, "wall_s") for out in traced)
                                   - sum(_scaled(out, "wall_s") for out in first)),
            "self_time": {"roots_checked": checked, "worst_gap_s": worst,
                          "traced_roots_s": traced_s, "untraced_work_s": untraced_s},
        })
        problems = coverage_problems(name, layers)
        if worst > 1e-6:
            problems.append(f"self times miss their root span by {worst} s")
        if problems:
            raise BenchError(f"{name} trace coverage: " + "; ".join(problems))
    return record


def _spec(root):
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json not found in the working directory")
    return json.loads(path.read_text(encoding="utf-8"))


def _select(values, specs, what):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"{what} metrics not computed: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def _table(record, metrics, env):
    lines = [f"# workload {record['workload']}  seed {record['seed']}  "
             f"samples {record['samples']}  repetitions per task "
             f"{record['reps'][0]}-{record['reps'][1]}  "
             f"attempted {record['attempted']}  "
             f"failed {record['failed']}"]
    rows = dict(metrics)
    rows["failed_ratio"] = {"value": record["failed_ratio"], "unit": "ratio"}
    for key, value in record["by_command"].items():
        unit = "1/s" if key.endswith("_per_s") else "s"
        rows[key] = {"value": value, "unit": unit}
    for key, value in record["unscaled"].items():
        unit = "ratio" if key == "host_slowdown" else "s"
        rows[f"unscaled.{key}"] = {"value": value, "unit": unit}
    for key, entry in rows.items():
        note = "  (computed)" if key.endswith("_flops") or key.endswith("_bytes") else ""
        lines.append(f"#   {key:<42} {entry['value']:>14.6g} {entry['unit']}{note}")
    if record["trace"]:
        st = record["self_time"]
        lines.append(f"# tracing_overhead_s {record['tracing_overhead_s']:.4f} s "
                     f"(traced minus untraced pass_s, both at the host's quiet "
                     f"speed); self times of "
                     f"{st['roots_checked']} single-threaded root spans add up "
                     f"to their wall time within {st['worst_gap_s']:.3g} s; "
                     f"traced root spans {st['traced_roots_s']:.4f} s against "
                     f"{st['untraced_work_s']:.4f} s untraced")
    lines.append("# node_counts " + json.dumps(record["node_counts"]))
    for failure in record["failures"][:10]:
        lines.append(f"# FAILED {failure}")
    env = dict(env, tracing_overhead_s=record.get("tracing_overhead_s"))
    lines.append("# env " + json.dumps(env, sort_keys=True))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    work = root / ".perfbench" / f"work-{os.getpid()}"
    try:
        spec = _spec(root)
        package = root / "src" / "solitonlab"
        if not (package / "cli.py").is_file():
            raise BenchError(f"no solitonlab sources under {package}")
        compileall.compile_dir(str(package), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
        work.mkdir(parents=True, exist_ok=True)
        runner = Runner(root)
        env = environment(root, runner)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records, result_metrics = [], {}
        for name in names:
            record = run_workload(name, root, work, args.seed, args.seconds,
                                  bool(args.trace), runner)
            if args.trace:
                metrics = _select(record["per_layer"], spec["per_layer"], "per-layer")
            else:
                metrics = _select(record["end_to_end"], spec["end_to_end"], "end-to-end")
            record["env"] = env
            record["metrics"] = metrics
            records.append(record)
            print("\n".join(_table(record, metrics, env)))
            prefix = f"{name}." if args.workload == "all" else ""
            result_metrics.update({prefix + k: v for k, v in metrics.items()})
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = {r["workload"]: r.pop("spans") for r in records if "spans" in r}
    if spans:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
    (out_dir / f"{stem}.json").write_text(json.dumps(records, indent=1, default=str))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark task in a fresh interpreter.

Usage: python3 perfbench/child.py '<task json>'

The task names the parent's clock reading taken just before this process was
started (``t0``); ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, which
is shared by all processes, so ``setup_s`` below covers interpreter start-up
and the package import.  Every child samples the host speed probe
(``speed.py``) before it imports solitonlab and again at its end; the corpus
loop also samples it around each operation, and a ``fit`` runs under the
background sampler instead.  The time spent in the probe is reported as
``probe_s`` and left out of ``setup_s`` and ``main_s``; the host's
``slowdown`` during the work and ``setup_slowdown`` from the samples around
the set-up go with the result.  Task kinds:

* ``cli``: call ``solitonlab.cli.main(argv)`` once, as the ``solitonlab``
  entry point does, with its standard output captured.
* ``import``: the import alone, an extra set-up sample for CLI workloads.
* ``corpus``: the warm-corpus library loop of one pass; its set-up also
  reads the first ``grid_frame`` of every chart.
* ``setup``: the corpus set-up alone, an extra set-up sample.

The result is one JSON line on standard output.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from speed import NOMINAL_S


def _run_cli(task, tracer):
    from solitonlab.cli import main

    sink = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink):
        if tracer is None:
            code = main(task["argv"])
        else:
            with tracer.root("cli.main"):
                code = main(task["argv"])
    return {"main_s": time.perf_counter() - start, "exit_code": code,
            "report": sink.getvalue()}


class _Ops:
    """Times each corpus operation, under a root span when tracing, and
    samples the speed probe before it; an operation's ``slowdown`` comes from
    the mean of the samples on either side of it."""

    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.rows = []

    def run(self, kind, chart, fn):
        self.probe.sample(repeats=1)
        start = time.perf_counter()
        if self.tracer is None:
            out = fn()
        else:
            with self.tracer.root(f"corpus.{kind}"):
                out = fn()
        self.rows.append({"kind": kind, "chart": chart,
                          "s": time.perf_counter() - start, "out": out})

    def finish(self):
        self.probe.sample(repeats=1)
        samples = self.probe.samples[-len(self.rows) - 1:]
        for row, before, after in zip(self.rows, samples, samples[1:]):
            row["slowdown"] = (before + after) / 2 / NOMINAL_S


def _run_corpus(task, tracer, charts, probe):
    from solitonlab.cli import cmd_integrate
    from solitonlab.geometry import scalar_field, vector_field
    from solitonlab.manifest import Manifest
    from solitonlab.solitons import (SolitonSpec, check_schur, grid_frame,
                                     identity_bochner, identity_div_lie,
                                     identity_trace_lie2)

    ops = _Ops(tracer, probe)
    for entry in task["plan"]:
        ch = charts[entry["manifest"]]
        name = entry["chart"]

        def curvature():
            fr = grid_frame(ch)
            return {"r_min": float(fr.r.min()), "r_max": float(fr.r.max())}

        def schur():
            rep = check_schur(ch)
            return {"verdict": rep.verdict, "residual": rep.residuals["schur"]}

        ops.run("curvature", name, curvature)
        ops.run("schur", name, schur)
        specs = []
        for source in entry["potentials"]:
            def gradient_field(source=source):
                spec = SolitonSpec(name=ch.name, chart=ch, kind="yamabe",
                                   lam=1.0, mu=0.0,
                                   potential=scalar_field(ch, source))
                specs.append(spec)
                trace = identity_trace_lie2(spec)
                boch = identity_bochner(spec)
                div = identity_div_lie(spec)
                return {
                    "verdicts": [trace.verdict, boch.verdict],
                    "residuals": [trace.residuals["trace_formula"],
                                  boch.residuals["bochner"],
                                  div.residuals["div_lie_formula"]],
                }
            ops.run("field", name, gradient_field)
        for sources in entry["vectors"]:
            def vector(sources=tuple(sources)):
                rep = identity_trace_lie2(vector_field(ch, sources))
                return {"verdicts": [rep.verdict],
                        "residuals": [rep.residuals["trace_formula"]]}
            ops.run("field", name, vector)
        man = Manifest(name=ch.name, chart=ch, soliton=specs[0], fit=None)
        for text, _ in entry["integrands"]:
            def integral(text=text):
                report, code = cmd_integrate(man, text, None)
                return {"value": report["value"], "exit_code": code}
            ops.run("integral", name, integral)
    ops.finish()
    return {"main_s": sum(row["s"] for row in ops.rows), "ops": ops.rows}


def main():
    task = json.loads(sys.argv[1])
    from speed import Probe, Sampler
    probe = Probe()
    probe.sample()
    import solitonlab.cli  # noqa: F401  (the set-up being timed)

    src = Path(task["root"]).resolve() / "src"
    if src not in Path(sys.modules["solitonlab"].__file__).resolve().parents:
        raise SystemExit(f"solitonlab imported from outside {src}")
    tracer = None
    if task["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = {}
    if task["kind"] in ("cli", "import"):
        out["setup_s"] = time.perf_counter() - task["t0"] - probe.spent_s
        out["setup_slowdown"] = probe.samples[0] / NOMINAL_S
        if task["kind"] == "cli":
            if task["argv"][0] == "fit":
                with Sampler() as sampler:
                    out.update(_run_cli(task, tracer))
                out["slowdown"] = sampler.slowdown()
            else:
                out.update(_run_cli(task, tracer))
    else:
        from solitonlab.manifest import bundled
        from solitonlab.quadrature import default_grid
        from solitonlab.solitons import grid_frame

        charts = {}
        for entry in task["plan"]:
            ch = bundled(entry["manifest"]).chart
            grid_frame(ch)
            charts[entry["manifest"]] = ch
        out["setup_s"] = time.perf_counter() - task["t0"] - probe.spent_s
        # This set-up builds frames for about a second: sample on both sides.
        probe.sample()
        out["setup_slowdown"] = (probe.samples[0] + probe.samples[1]) / 2 / NOMINAL_S
        out["grids"] = {name: list(default_grid(ch).counts)
                        for name, ch in charts.items()}
        if task["kind"] == "corpus":
            out.update(_run_corpus(task, tracer, charts, probe))
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe.sample()
    out.setdefault("slowdown", probe.slowdown())
    out["probe_s"] = probe.spent_s
    if tracer is not None:
        out["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

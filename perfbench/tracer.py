"""Span tracer installed around solitonlab's layers from outside the package.

A traced child interpreter calls ``Tracer().install()`` after importing
solitonlab.  For every traced function the tracer replaces each binding of
that function object in every ``solitonlab.*`` module (and in the classes
those modules define), so that a name imported elsewhere with
``from .geometry import frame`` is traced exactly like the original.  It also
wraps ``numpy.einsum`` and hands the current span to the fit's thread-pool
workers, so a ``residual_stack`` column computed on a worker thread is the
child of the ``_jacobian`` span that submitted it.

Spans live in memory.  A span's self time is its duration minus the part of
that interval its child spans cover; children on other threads may overlap,
so the covered part is the union of their intervals.
"""

import contextvars
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_now = time.perf_counter
_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_IDS = itertools.count(1)

# Check id -> the solitons function that evaluates it (theorems go through
# evaluate_theorem, whose first argument is the id).
CHECK_FUNCTIONS = {
    "trace_lie2": "identity_trace_lie2",
    "bochner": "identity_bochner",
    "lemma_hessian": "identity_lemma_hessian",
    "div_lie": "identity_div_lie",
    "prop_p2": "identity_prop_p2",
    "contracted_trace": "check_contracted_trace",
    "remark_csc": "remark_csc",
    "schur": "check_schur",
}
THEOREM_IDS = ("T-C", "T-1", "T-2", "T-COR", "T-SQ", "T-N2", "P-CSC")
CHECK_IDS = tuple(CHECK_FUNCTIONS) + THEOREM_IDS


class TracerError(RuntimeError):
    pass


class Span:
    __slots__ = ("id", "name", "parent", "root", "thread", "start", "end",
                 "covered", "nested", "data", "self_sum", "multithread")

    def __init__(self, name, parent):
        self.id = next(_IDS)
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.thread = threading.get_ident()
        self.covered = []
        self.data = {}
        self.self_sum = 0.0
        self.multithread = False
        ancestor = parent
        while ancestor is not None and ancestor.name != name:
            ancestor = ancestor.parent
        self.nested = ancestor is not None


def _union_length(intervals, lo, hi):
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class _ContextPool(ThreadPoolExecutor):
    """Runs each submitted call in a copy of the submitter's context, so the
    worker's spans have the submitting span as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self.stats = {}          # span name -> [calls, total_s, self_s]
        self.counts = {}         # counter name -> number
        self.einsum = {}         # enclosing span name -> [calls, s, flops]
        self.roots = []          # closed root spans, in order
        self.spans = []          # (id, root, parent, name, thread, start, end, self_s)
        self.sites = {}          # traced name -> binding sites replaced
        self._flops = {}
        self._frame_keys = set()

    # ------------------------------------------------------------ recording

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name):
        span = Span(name, _CURRENT.get())
        return span, _CURRENT.set(span)

    def close(self, span, token):
        _CURRENT.reset(token)
        duration = span.end - span.start
        self_s = duration - _union_length(span.covered, span.start, span.end)
        root = span.root
        with self._lock:
            row = self.stats.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            if not span.nested:
                row[1] += duration
            row[2] += self_s
            root.self_sum += self_s
            if span.thread != root.thread:
                root.multithread = True
            if span.parent is not None:
                span.parent.covered.append((span.start, span.end))
            else:
                self.roots.append(span)
            self.spans.append((span.id, root.id, _id(span.parent), span.name,
                               span.thread, span.start, span.end, self_s))

    def root(self, name):
        """Context manager for a task's root span."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.span, self.token = tracer.open(name)
                self.span.start = _now()
                return self.span

            def __exit__(self, *exc):
                self.span.end = _now()
                tracer.close(self.span, self.token)
                return False

        return _Root()

    def _traced(self, name, fn, name_of=None, on_exit=None, cached=False):
        tracer = self

        def traced(*args, **kwargs):
            span, token = tracer.open(name_of(args) if name_of else name)
            misses = fn.cache_info().misses if cached else 0
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = _now()
                tracer.close(span, token)
                raise
            span.end = _now()
            if cached:
                hit = fn.cache_info().misses == misses
                tracer.count(f"{name}_{'hits' if hit else 'misses'}")
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            tracer.close(span, token)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        if cached:
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _einsum(self, original):
        tracer = self

        def einsum(*operands, **kwargs):
            t0 = _now()
            out = original(*operands, **kwargs)
            t1 = _now()
            flops = tracer._einsum_flops(operands, kwargs.get("optimize", False))
            parent = _CURRENT.get()
            where = parent.name if parent is not None else "(none)"
            with tracer._lock:
                row = tracer.einsum.setdefault(where, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += t1 - t0
                row[2] += flops
                if parent is not None:
                    parent.covered.append((t0, t1))
                    parent.root.self_sum += t1 - t0
                tracer.spans.append((
                    next(_IDS), _id(parent and parent.root), _id(parent),
                    "numpy.einsum", threading.get_ident(), t0, t1, t1 - t0))
            return out

        return einsum

    def _einsum_flops(self, operands, optimize):
        """Floating-point operation count numpy's einsum_path computes for
        this call under the optimize setting the call asked for.  Computed,
        not measured; cached per subscripts, shapes and setting."""
        key = (operands[0] if isinstance(operands[0], str) else None,
               tuple(np.shape(op) for op in operands[1:]), repr(optimize))
        flops = self._flops.get(key)
        if flops is None:
            _, text = np.einsum_path(*operands, optimize=optimize)
            line = next(l for l in text.splitlines()
                        if "Optimized FLOP count" in l)
            flops = float(line.split(":")[1])
            self._flops[key] = flops
        return flops

    # --------------------------------------------------------- layer hooks

    def _on_frame(self, span, args, kwargs, fr):
        nbytes = sum(v.nbytes for v in vars(fr).values()
                     if isinstance(v, np.ndarray))
        key = (args[0].name, tuple(np.shape(args[1])[:-1]))
        with self._lock:
            self.counts["geometry.frame_bytes"] = (
                self.counts.get("geometry.frame_bytes", 0) + nbytes)
            self._frame_keys.add(key)

    def _on_residual_stack(self, span, args, kwargs, result):
        parent = span.parent
        if parent is None:
            return
        if parent.name == "fitting.jacobian":
            with self._lock:
                parent.data["columns_s"] = (
                    parent.data.get("columns_s", 0.0) + span.end - span.start)
        elif parent.name == "fitting.fit":
            stage = kwargs.get("stage", args[4] if len(args) > 4 else "fit")
            if stage == "fit":
                parent.data["fit_stacks"] = parent.data.get("fit_stacks", 0) + 1

    def _on_jacobian(self, span, args, kwargs, result):
        self.count("fitting.jacobian_columns_s", span.data.get("columns_s", 0.0))

    def _on_fit(self, span, args, kwargs, result):
        problem = args[0]
        # The first residual evaluation under fit() is the starting point;
        # each later one on the fit grid is one damped trial step.
        self.count("fitting.lm_iterations", result.iterations)
        self.count("fitting.lm_trials", span.data.get("fit_stacks", 0) - 1)
        self.count("fitting.lm_accepted", len(problem.history) - 1)

    # ------------------------------------------------------------ install

    def install(self):
        from solitonlab import (cli, expr, fitting, geometry, jets, manifest,
                                quadrature, solitons)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "solitonlab" or n.startswith("solitonlab.")]
        targets = [
            ("jets.mul", vars(jets.Jet)["__mul__"], {}),
            ("jets.unary", jets.apply_unary, {}),
            ("expr.evaluate", expr.evaluate, {}),
            ("geometry.frame", geometry.frame, {"on_exit": self._on_frame}),
            ("geometry.scalar_jets", geometry.scalar_jets, {}),
            ("geometry.vector_jets", geometry.vector_jets, {}),
            ("geometry.gradient_vector_jets", geometry.gradient_vector_jets, {}),
            ("geometry.lie_metric_jets", geometry.lie_metric_jets, {}),
            ("quadrature.grid_nodes", quadrature.grid_nodes, {"cached": True}),
            ("solitons.grid_frame", solitons.grid_frame, {"cached": True}),
            ("solitons.workspace", solitons.workspace, {"cached": True}),
            ("solitons.run_check", solitons.run_check, {}),
            ("solitons.check.<theorem>", solitons.evaluate_theorem,
             {"name_of": lambda args: f"solitons.check.{args[0]}"}),
            ("fitting.problem_setup", vars(fitting.FitProblem)["__init__"], {}),
            ("fitting.residual_stack", vars(fitting.FitProblem)["residual_stack"],
             {"on_exit": self._on_residual_stack}),
            ("fitting.jacobian", vars(fitting.FitProblem)["_jacobian"],
             {"on_exit": self._on_jacobian}),
            ("fitting.fit", vars(fitting.FitProblem)["fit"],
             {"on_exit": self._on_fit}),
            ("manifest.load", manifest.bundled, {}),
            ("manifest.load", manifest.load_manifest, {}),
            ("cli.render_json", cli.render_json, {}),
            ("cli.cmd_integrate", cli.cmd_integrate, {}),
        ]
        for check_id, func in CHECK_FUNCTIONS.items():
            targets.append((f"solitons.check.{check_id}",
                            getattr(solitons, func), {}))
        for name, fn, options in targets:
            sites = _rebind(modules, fn, self._traced(name, fn, **options))
            if not sites:
                raise TracerError(f"no binding of {name} found to trace")
            self.sites.setdefault(name, []).extend(sites)
        self.sites["numpy.einsum"] = ["numpy.einsum"]
        np.einsum = self._einsum(np.einsum)
        pool_sites = _rebind(modules, ThreadPoolExecutor, _ContextPool)
        self.sites["concurrent.futures.ThreadPoolExecutor"] = pool_sites

    # ------------------------------------------------------------ results

    def summary(self):
        """Plain-data totals for the parent process to aggregate."""
        with self._lock:
            roots = [
                {"name": r.name, "wall_s": r.end - r.start,
                 "self_sum_s": r.self_sum, "multithread": r.multithread}
                for r in self.roots
            ]
            return {
                "stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts),
                "einsum": {k: list(v) for k, v in self.einsum.items()},
                "frame_grids": len(self._frame_keys),
                "roots": roots,
                "sites": {k: sorted(v) for k, v in self.sites.items()},
                "spans": list(self.spans),
            }


def _id(span):
    return span.id if span is not None else None


def _rebind(modules, original, replacement):
    """Replace every binding of `original` in the modules and in the classes
    they define; returns the binding sites as dotted names."""
    sites = []
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                sites.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, replacement)
                        sites.append(f"{module.__name__}.{key}.{attr}")
    return sites

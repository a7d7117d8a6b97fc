"""Batch command line front end.

Four subcommands, each driven by a JSON manifest (a file path or the name of
a bundled example):

* ``describe``  chart summary: coordinate ranges, scalar curvature range,
  Einstein deviation, volume.
* ``check``     identity and theorem checks on the manifest's soliton block.
* ``integrate`` quadrature of an integrand in the grammar of
  ``expr.parse_integrand``: beyond the metric DSL it has ``r`` (scalar
  curvature), ``f`` (declared gradient potential), ``ric(v, w)`` and
  ``g(v, w)`` over the vectors {gradf, gradr, xi}, and ``lap(s)`` and
  ``norm2_hess(s)`` for s = f or an expression in the coordinates.  These
  names are reserved: a chart whose coordinate is named like one of them
  cannot be integrated over.
* ``fit``       least-squares potential fit per the manifest's fit block,
  followed by the full check suite on the fitted soliton.

Reports are printed as JSON with fixed key order and floats at 17 significant
digits, so equal inputs give byte-identical output.  Exit status: 0 for
success (hypothesis-not-met included), 1 if any check verdict is violated,
2 for usage, schema or evaluation errors.
"""

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .expr import Geo, eval_values, parse_integrand
from .fitting import FitProblem
from .geometry import ScalarField, _node_label, pair, raise_covec, ric_vv
from .manifest import ManifestError, bundled, bundled_names, load_manifest
from .quadrature import QuadratureError, axis_rules, default_grid, grid_nodes
from .records import asdict
from .solitons import (
    CHECK_IDS,
    GRADIENT_ONLY,
    SolitonError,
    Tolerances,
    grid_frame,
    integral,
    max_norm,
    run_check,
    workspace,
)

VERDICTS = ("identity-holds", "hypothesis-not-met", "violated")


# --------------------------------------------------------- report rendering

def _format_number(x, path):
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report at {path}: {x!r}")
    return format(x, ".17g")


def render_json(obj, indent=0, path="$"):
    """Deterministic JSON: insertion-order keys, floats at 17 significant
    digits, two-space indentation.  ``path`` names ``obj`` in the report
    (``$.checks[0].max_residual``) for the error on a non-finite float."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "  " * (indent + 1)
        rows = [
            f"{inner}{render_json(str(k))}: "
            f"{render_json(v, indent + 1, f'{path}.{k}')}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        inner = "  " * (indent + 1)
        rows = [f"{inner}{render_json(v, indent + 1, f'{path}[{i}]')}"
                for i, v in enumerate(obj)]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_number(float(obj), path)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


# ------------------------------------------------------------- integrands

def _integrand_values(man, grid, source):
    """Values of the integrand ``source`` on the nodes of ``grid``; ``lap``,
    ``norm2_hess`` and ``gradf`` read the Workspace the checks read, so f's
    is the one ``check`` caches in this process; the frame leaves read the
    cached frame."""
    ch, sol = man.chart, man.soliton
    x, _ = grid_nodes(ch, grid)
    fr = grid_frame(ch, grid)

    def gradient_spec():
        if sol is None or sol.potential is None:
            raise SolitonError(
                "integrand references the potential f but the manifest "
                "declares no gradient potential"
            )
        return sol

    @cache
    def field(node):
        """The Workspace of f (``Geo("f")``) or of a coordinate expression,
        held for this integrand, which the workspace cache may evict."""
        if node == Geo("f"):
            return workspace(gradient_spec(), grid)
        return workspace(ScalarField(ch, source[slice(*node.span)], node), grid)

    @cache
    def vector(name):
        if name == "gradr":
            return raise_covec(fr, fr.dr)
        if name == "gradf":
            return field(Geo("f")).vj[0]
        if sol is None or sol.vector is None:
            raise SolitonError(
                "integrand references xi but the manifest declares "
                "no vector potential"
            )
        return np.stack([eval_values(nd, x) for nd in sol.vector.nodes], axis=-1)

    def leaf(node):
        if node.name == "r":
            return fr.r
        if node.name == "f":
            return eval_values(gradient_spec().potential.node, x)
        if node.name == "ric":
            return ric_vv(fr, *map(vector, node.args))
        if node.name == "g":
            return pair(fr.g, *map(vector, node.args))
        ws = field(node.args[0])
        return ws.lap if node.name == "lap" else ws.hess2

    return eval_values(parse_integrand(source, ch.coords), x, leaf)


# ----------------------------------------------------------------- commands

def cmd_describe(man, grid):
    ch = man.chart
    fr = grid_frame(ch, grid)
    dev = fr.Ric - (fr.r / ch.dim)[..., None, None] * fr.g
    report = {
        "command": "describe",
        "manifest": man.name,
        "dim": ch.dim,
        "coordinates": [
            {"name": c, "range": [ch.lo[i], ch.hi[i]],
             "periodic": ch.periodic[i]}
            for i, c in enumerate(ch.coords)
        ],
        "grid": list(grid.counts),
        "volume": integral(fr, grid_nodes(ch, grid)[1], 1.0),
        "scalar_curvature": {"min": float(fr.r.min()),
                             "max": float(fr.r.max())},
        "einstein_deviation_max": max_norm(fr, dev),
    }
    if man.soliton is not None:
        sol = man.soliton
        report["soliton"] = {
            "kind": sol.kind,
            "potential": "gradient" if sol.is_gradient else "vector",
            "lambda": sol.lam,
            "mu": sol.mu,
        }
    return report, 0


def _select_checks(man, ids):
    if not ids:
        if man.soliton is not None and not man.soliton.is_gradient:
            return [cid for cid in CHECK_IDS if cid not in GRADIENT_ONLY]
        return list(CHECK_IDS)
    for cid in ids:
        if cid not in CHECK_IDS:
            raise SolitonError(
                f"unknown check id {cid!r}; valid ids: {', '.join(CHECK_IDS)}"
            )
        if ids.count(cid) > 1:
            raise SolitonError(f"check id {cid!r} is given more than once")
    return ids


def _run_suite(sol, ids, grid, tol):
    """The checks ``ids`` on ``sol``: verdict counts, per-check reports and
    the exit code, 1 if any verdict is violated."""
    reports = [run_check(sol, cid, grid, tol) for cid in ids]
    counts = {v: sum(1 for r in reports if r.verdict == v) for v in VERDICTS}
    return counts, [asdict(r) for r in reports], 1 if counts["violated"] else 0


def cmd_check(man, ids, grid, tol):
    if man.soliton is None:
        raise ManifestError("soliton", "the check command needs a soliton block")
    counts, checks, code = _run_suite(man.soliton, ids, grid, tol)
    report = {
        "command": "check",
        "manifest": man.name,
        "kind": man.soliton.kind,
        "grid": list(grid.counts),
        "tolerances": asdict(tol),
        "verdict_counts": counts,
        "checks": checks,
    }
    return report, code


def cmd_integrate(man, expression, grid):
    ch = man.chart
    spec = grid if grid is not None else default_grid(ch)
    x, w = grid_nodes(ch, spec)
    values = _integrand_values(man, spec, expression)
    finite = np.isfinite(values)
    if not finite.all():
        flat = int(np.argmin(finite))
        raise QuadratureError(
            f"integrand not defined at {_node_label(ch, x, flat, values.shape)}: "
            f"value {float(values.flat[flat])!r}"
        )
    total = integral(grid_frame(ch, spec), w, values)
    if not math.isfinite(total):
        raise QuadratureError("integral of a finite integrand overflowed")
    report = {
        "command": "integrate",
        "manifest": man.name,
        "expression": expression,
        "value": total,
        "grid": list(spec.counts),
        "rules": list(axis_rules(ch)),
    }
    return report, 0


def cmd_fit(man, grid, tol):
    fit = man.fit
    if fit is None:
        raise ManifestError("fit", "the fit command needs a fit block")
    result = FitProblem(fit.kind, fit.basis, grid=grid).fit(fit.init)
    counts, checks, code = _run_suite(result.soliton, CHECK_IDS, grid, tol)
    report = {
        "command": "fit",
        "manifest": man.name,
        "kind": fit.kind,
        "basis": {"family": fit.basis.family, "degree": fit.basis.degree,
                  "terms": list(fit.basis.terms())},
        "result": {
            "coefficients": list(result.coefficients),
            "lambda": result.lam,
            "mu": result.mu,
            "objective": result.objective,
            "objective_fit_grid": result.objective_fit_grid,
            "iterations": result.iterations,
            "converged": result.converged,
            "reason": result.reason,
            "lambda_clamped": result.lam_clamped,
            "grid": list(result.grid),
            "fit_grid": list(result.fit_grid),
        },
        "potential": result.soliton.potential.source,
        "verdict_counts": counts,
        "checks": checks,
    }
    return report, code


# --------------------------------------------------------------- entry point

def _resolve_manifest(arg):
    path = Path(arg)
    if path.exists():
        return load_manifest(path)
    names = bundled_names()
    if arg in names:
        return bundled(arg)
    raise ManifestError(
        "manifest",
        f"no such file or bundled manifest {arg!r}; bundled names: "
        + ", ".join(names),
    )


def _parse_grid(text, ch):
    """The grid ``--grid`` names, or the chart's default grid without one."""
    try:
        counts = (tuple(int(part) for part in text.split(","))
                  if text is not None else None)
    except ValueError:
        raise QuadratureError(
            f"--grid expects comma separated integers, got {text!r}"
        ) from None
    return default_grid(ch, counts)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="Curvature identities, soliton checks, integrals and "
                    "potential fits on explicit compact manifolds.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.set_defaults(tol=None)  # describe and integrate compare nothing
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=False):
        p.add_argument("manifest",
                       help="manifest JSON path or bundled manifest name")
        p.add_argument("--grid",
                       help="node counts per coordinate, e.g. 64,128")
        if tol:
            p.add_argument("--tol", type=float,
                           help="uniform tolerance replacing the defaults")
        p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("describe", help="chart and curvature summary")
    common(p)

    p = sub.add_parser("check", help="run identity and theorem checks")
    common(p, tol=True)
    p.add_argument("ids", nargs="*", metavar="check-id",
                   help=f"checks to run (default all applicable); "
                        f"valid: {', '.join(CHECK_IDS)}")

    p = sub.add_parser("integrate",
                       help="integrate an expression over the manifold")
    common(p)
    p.add_argument("expression", help="integrand in the extended DSL")

    p = sub.add_parser("fit", help="fit a gradient potential")
    common(p, tol=True)

    return parser


def main(argv=None):
    parser = _build_parser()
    # argparse stops filling check ids at the first option, so ids after
    # one, as in `check NAME --grid 8,8 schur`, come back as leftovers.
    args, rest = parser.parse_known_args(argv)
    if args.command == "check":
        args.ids += [token for token in rest if not token.startswith("-")]
        rest = [token for token in rest if token.startswith("-")]
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        man = _resolve_manifest(args.manifest)
        grid = _parse_grid(args.grid, man.chart)
        tol = (Tolerances.uniform(args.tol) if args.tol is not None
               else Tolerances())
        if args.command == "describe":
            report, code = cmd_describe(man, grid)
        elif args.command == "check":
            ids = _select_checks(man, args.ids)
            report, code = cmd_check(man, ids, grid, tol)
        elif args.command == "integrate":
            report, code = cmd_integrate(man, args.expression, grid)
        else:
            report, code = cmd_fit(man, grid, tol)
        text = render_json(report) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except (ValueError, OSError) as err:
        # Every error class of the package is a ValueError; OSError is --out.
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .expr import ExprError, Geo, eval_values, parse_integrand
from .fitting import BasisExpansion, FitError, fit_potential
from .geometry import (
    GeometryError,
    ScalarField,
    _node_label,
    hessian,
    laplacian,
    norm2_sym2,
    raise_covec,
    ric_vv,
    scalar_jets,
)
from .manifest import ManifestError, bundled, bundled_names, load_manifest
from .quadrature import QuadratureError, default_grid, grid_nodes
from .solitons import (
    CHECK_IDS,
    GRADIENT_ONLY,
    SolitonError,
    Tolerances,
    grid_frame,
    run_check,
)

VERDICTS = ("identity-holds", "hypothesis-not-met", "violated")


# --------------------------------------------------------- report rendering

def _format_number(x):
    if not math.isfinite(x):
        raise ValueError("non-finite value in report")
    return format(x, ".17g")


def render_json(obj, indent=0):
    """Deterministic JSON: insertion-order keys, floats at 17 significant
    digits, two-space indentation."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "  " * (indent + 1)
        rows = [
            f"{inner}{render_json(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        inner = "  " * (indent + 1)
        rows = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_number(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


# ------------------------------------------------------------- integrands

def _integrand_values(man, fr, x, source):
    """Values of the integrand ``source`` at the nodes ``x``, with its
    geometric names bound to the frame ``fr`` and the manifest's soliton."""
    ch = man.chart
    sol = man.soliton
    jets = {}

    def potential():
        if sol is None or sol.potential is None:
            raise SolitonError(
                "integrand references the potential f but the manifest "
                "declares no gradient potential"
            )
        return sol.potential

    def scalar(node):
        """Order-3 jets of f (``Geo("f")``) or of a coordinate expression."""
        field = (potential() if node == Geo("f") else
                 ScalarField(ch, source[node.span[0]:node.span[1]], node))
        if field.node not in jets:
            jets[field.node] = scalar_jets(field, x, order=3)
        return jets[field.node]

    @cache
    def vector(name):
        if name == "gradr":
            return raise_covec(fr, fr.dr)
        if name == "gradf":
            return raise_covec(fr, scalar(Geo("f")).df)
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
            return eval_values(potential().node, x)
        if node.name == "ric":
            return ric_vv(fr, *map(vector, node.args))
        if node.name == "g":
            v, w = map(vector, node.args)
            return np.einsum("...ab,...a,...b->...", fr.g, v, w)
        sj = scalar(node.args[0])
        if node.name == "lap":
            return laplacian(fr, sj)
        return norm2_sym2(fr, hessian(fr, sj))

    return eval_values(parse_integrand(source, ch.coords), x, leaf)


# ----------------------------------------------------------------- commands

def cmd_describe(man, grid):
    ch = man.chart
    spec = grid if grid is not None else default_grid(ch)
    _, w = grid_nodes(ch, spec)
    fr = grid_frame(ch, spec)
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
        "grid": list(spec.counts),
        "volume": float(np.sum(w * fr.sqrtg)),
        "scalar_curvature": {"min": float(fr.r.min()),
                             "max": float(fr.r.max())},
        "einstein_deviation_max": float(np.sqrt(np.max(norm2_sym2(fr, dev)))),
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


def _select_checks(man, args):
    ids = list(args.ids)
    if args.checks:
        ids.extend(part.strip() for part in args.checks.split(",") if part.strip())
    if not ids:
        if man.soliton is not None and not man.soliton.is_gradient:
            return [cid for cid in CHECK_IDS if cid not in GRADIENT_ONLY]
        return list(CHECK_IDS)
    for cid in ids:
        if cid not in CHECK_IDS:
            raise SolitonError(
                f"unknown check id {cid!r}; valid ids: {', '.join(CHECK_IDS)}"
            )
    return ids


def cmd_check(man, ids, grid, tol):
    if man.soliton is None:
        raise ManifestError("soliton", "the check command needs a soliton block")
    spec = grid if grid is not None else default_grid(man.chart)
    reports = [run_check(man.soliton, cid, spec, tol) for cid in ids]
    counts = {v: sum(1 for r in reports if r.verdict == v) for v in VERDICTS}
    report = {
        "command": "check",
        "manifest": man.name,
        "kind": man.soliton.kind,
        "grid": list(spec.counts),
        "tolerances": asdict(tol),
        "verdict_counts": counts,
        "checks": [asdict(r) for r in reports],
    }
    return report, 1 if counts["violated"] else 0


def cmd_integrate(man, expression, grid):
    ch = man.chart
    spec = grid if grid is not None else default_grid(ch)
    x, w = grid_nodes(ch, spec)
    fr = grid_frame(ch, spec)
    values = _integrand_values(man, fr, x, expression)
    finite = np.isfinite(values)
    if not finite.all():
        flat = int(np.argmin(finite))
        raise QuadratureError(
            f"integrand not defined at {_node_label(ch, x, flat)}: "
            f"value {float(values.flat[flat])!r}"
        )
    total = float(np.sum(values * w * fr.sqrtg))
    if not math.isfinite(total):
        raise QuadratureError("integral of a finite integrand overflowed")
    report = {
        "command": "integrate",
        "manifest": man.name,
        "expression": expression,
        "value": total,
        "grid": list(spec.counts),
        "rules": list(spec.rules),
    }
    return report, 0


def cmd_fit(man, grid, tol):
    if man.fit is None:
        raise ManifestError("fit", "the fit command needs a fit block")
    ch = man.chart
    spec = grid if grid is not None else default_grid(ch)
    basis = BasisExpansion(chart=ch, family=man.fit.family,
                           degree=man.fit.degree)
    result = fit_potential(ch, man.fit.kind, basis, init=man.fit.init,
                           grid=spec, opts=man.fit.options)
    checks = [run_check(result.soliton, cid, spec, tol) for cid in CHECK_IDS]
    counts = {v: sum(1 for r in checks if r.verdict == v) for v in VERDICTS}
    report = {
        "command": "fit",
        "manifest": man.name,
        "kind": man.fit.kind,
        "basis": {"family": man.fit.family, "degree": man.fit.degree,
                  "terms": list(basis.terms())},
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
        "checks": [asdict(r) for r in checks],
    }
    return report, 1 if counts["violated"] else 0


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
    try:
        counts = tuple(int(part) for part in text.split(","))
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
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("manifest",
                       help="manifest JSON path or bundled manifest name")
        p.add_argument("--grid",
                       help="node counts per coordinate, e.g. 64,128")
        p.add_argument("--tol", type=float,
                       help="uniform tolerance replacing the defaults")
        p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("describe", help="chart and curvature summary")
    common(p)

    p = sub.add_parser("check", help="run identity and theorem checks")
    common(p)
    p.add_argument("ids", nargs="*", metavar="check-id",
                   help=f"checks to run (default all applicable); "
                        f"valid: {', '.join(CHECK_IDS)}")
    p.add_argument("--checks", help="comma separated check ids")

    p = sub.add_parser("integrate",
                       help="integrate an expression over the manifold")
    common(p)
    p.add_argument("expression", help="integrand in the extended DSL")

    p = sub.add_parser("fit", help="fit a gradient potential")
    common(p)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        man = _resolve_manifest(args.manifest)
        grid = _parse_grid(args.grid, man.chart) if args.grid else None
        tol = (Tolerances.uniform(args.tol) if args.tol is not None
               else Tolerances())
        if args.command == "describe":
            report, code = cmd_describe(man, grid)
        elif args.command == "check":
            ids = _select_checks(man, args)
            report, code = cmd_check(man, ids, grid, tol)
        elif args.command == "integrate":
            report, code = cmd_integrate(man, args.expression, grid)
        else:
            report, code = cmd_fit(man, grid, tol)
    except (ManifestError, GeometryError, QuadratureError, ExprError,
            SolitonError, FitError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text = render_json(report) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

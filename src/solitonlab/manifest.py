"""JSON manifests describing a manifold, an optional soliton, and a fit.

A manifest is validated structurally before any expression is evaluated, and
every complaint carries the path of the offending field ("manifold.metric[1][1]",
"soliton.lambda", ...) so CI logs point at the exact slot.  Numbers may be
written either as JSON numbers or as constant DSL strings like "2*pi".

The metric table must fill every slot with row <= column; entries below the
diagonal are ignored and mirrored from the upper triangle, so symmetric
metrics need only be written once.
"""

import json
from importlib import resources
from typing import Optional

from .expr import ExprError, eval_number, parse
from .fitting import BasisExpansion, FitError, FitInit
from .geometry import Chart, GeometryError, chart, scalar_field, vector_field
from .records import record
from .solitons import KINDS, SolitonError, SolitonSpec


class ManifestError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


@record
class FitBlock:
    kind: str
    basis: BasisExpansion
    init: FitInit


@record
class Manifest:
    name: str
    chart: Chart
    soliton: Optional[SolitonSpec] = None
    fit: Optional[FitBlock] = None


def _need(block, key, path, kind=None):
    if key not in block:
        raise ManifestError(f"{path}.{key}", "missing field")
    value = block[key]
    # JSON true and false are ints to Python; they never count as one here.
    if kind is not None and (not isinstance(value, kind)
                             or kind is int and isinstance(value, bool)):
        raise ManifestError(
            f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ManifestError(path, "expected a number or a constant expression")
    if isinstance(value, str):
        try:
            return eval_number(parse(value))
        except ExprError as err:
            raise ManifestError(path, str(err)) from err
    return float(value)


def _expr_text(value, coords, path):
    if not isinstance(value, str):
        raise ManifestError(path, "expected an expression string")
    try:
        parse(value, coords)
    except ExprError as err:
        raise ManifestError(path, str(err)) from err
    return value


def _check_keys(block, allowed, path):
    for key in block:
        if key not in allowed:
            raise ManifestError(f"{path}.{key}", "unknown field")


def _parse_manifold(block):
    path = "manifold"
    _check_keys(
        block,
        ("name", "dim", "coords", "domain", "periodic", "metric", "grid"),
        path,
    )
    name = _need(block, "name", path, str)
    dim = _need(block, "dim", path, int)
    coords = _need(block, "coords", path, list)
    if len(coords) != dim or not all(isinstance(c, str) for c in coords):
        raise ManifestError(f"{path}.coords", f"expected {dim} coordinate names")
    domain = _need(block, "domain", path, list)
    if len(domain) != dim:
        raise ManifestError(f"{path}.domain", f"expected {dim} [lo, hi] pairs")
    lo, hi = [], []
    for i, pair in enumerate(domain):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ManifestError(f"{path}.domain[{i}]", "expected a [lo, hi] pair")
        lo.append(_number(pair[0], f"{path}.domain[{i}][0]"))
        hi.append(_number(pair[1], f"{path}.domain[{i}][1]"))
    periodic = _need(block, "periodic", path, list)
    if len(periodic) != dim or not all(isinstance(p, bool) for p in periodic):
        raise ManifestError(f"{path}.periodic", f"expected {dim} booleans")

    rows = _need(block, "metric", path, list)
    if len(rows) != dim or not all(isinstance(r, list) for r in rows):
        raise ManifestError(f"{path}.metric", f"expected {dim} rows")
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        if len(rows[i]) > dim:
            raise ManifestError(f"{path}.metric[{i}]", f"expected at most {dim} entries")
        for j in range(dim):
            if j < len(rows[i]):
                entry = rows[i][j]
                if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                    entry = repr(float(entry))
                table[i][j] = _expr_text(
                    entry, tuple(coords), f"{path}.metric[{i}][{j}]"
                )
            elif j >= i:
                raise ManifestError(f"{path}.metric[{i}][{j}]", "missing entry")
    for i in range(dim):
        for j in range(i):
            table[i][j] = table[j][i]

    grid = block.get("grid")
    if grid is not None:
        if (
            not isinstance(grid, list)
            or len(grid) != dim
            or not all(isinstance(m, int) and not isinstance(m, bool) for m in grid)
        ):
            raise ManifestError(f"{path}.grid", f"expected {dim} integer counts")
    try:
        return chart(name, coords, lo, hi, periodic, table, grid_hint=grid)
    except (GeometryError, ExprError) as err:
        raise ManifestError(path, str(err)) from err


def _parse_soliton(block, ch):
    path = "soliton"
    _check_keys(block, ("kind", "potential", "lambda", "mu"), path)
    kind = _need(block, "kind", path, str)
    if kind not in KINDS:
        raise ManifestError(f"{path}.kind", f"expected one of {KINDS}")
    lam = _number(_need(block, "lambda", path), f"{path}.lambda")
    if lam == 0.0:
        raise ManifestError(f"{path}.lambda", "must be nonzero")
    mu = _number(_need(block, "mu", path), f"{path}.mu")
    pot = _need(block, "potential", path, dict)
    if set(pot) == {"gradient"}:
        text = _expr_text(pot["gradient"], ch.coords, f"{path}.potential.gradient")
        potential, vector = scalar_field(ch, text), None
    elif set(pot) == {"vector"}:
        comps = pot["vector"]
        if not isinstance(comps, list) or len(comps) != ch.dim:
            raise ManifestError(
                f"{path}.potential.vector", f"expected {ch.dim} components"
            )
        texts = tuple(
            _expr_text(c, ch.coords, f"{path}.potential.vector[{i}]")
            for i, c in enumerate(comps)
        )
        potential, vector = None, vector_field(ch, texts)
    else:
        raise ManifestError(
            f"{path}.potential", 'expected {"gradient": expr} or {"vector": [exprs]}'
        )
    try:
        return SolitonSpec(
            name=ch.name, chart=ch, kind=kind, lam=lam, mu=mu,
            potential=potential, vector=vector,
        )
    except SolitonError as err:
        raise ManifestError(path, str(err)) from err


def _parse_fit(block, ch):
    path = "fit"
    _check_keys(block, ("kind", "basis", "degree", "init"), path)
    kind = _need(block, "kind", path, str)
    if kind not in KINDS:
        raise ManifestError(f"{path}.kind", f"expected one of {KINDS}")
    family = _need(block, "basis", path, str)
    degree = _need(block, "degree", path, int)
    if degree < 0:
        raise ManifestError(f"{path}.degree", "must be nonnegative")
    try:
        basis = BasisExpansion(chart=ch, family=family, degree=degree)
    except FitError as err:
        raise ManifestError(f"{path}.basis", str(err)) from err

    init_block = block.get("init", {})
    if not isinstance(init_block, dict):
        raise ManifestError(f"{path}.init", "expected an object")
    _check_keys(init_block, ("coefficients", "lambda", "mu"), f"{path}.init")
    coeffs = init_block.get("coefficients")
    if coeffs is not None:
        if not isinstance(coeffs, list):
            raise ManifestError(f"{path}.init.coefficients", "expected a list")
        count = len(basis.terms())
        if len(coeffs) != count:
            raise ManifestError(
                f"{path}.init.coefficients",
                f"expected {count} coefficients, one per basis term, "
                f"got {len(coeffs)}",
            )
        coeffs = tuple(
            _number(c, f"{path}.init.coefficients[{i}]")
            for i, c in enumerate(coeffs)
        )
    init = FitInit(
        coefficients=coeffs,
        lam=_number(init_block.get("lambda", 1.0), f"{path}.init.lambda"),
        mu=_number(init_block.get("mu", 0.0), f"{path}.init.mu"),
    )
    return FitBlock(kind=kind, basis=basis, init=init)


def parse_manifest(data):
    if not isinstance(data, dict):
        raise ManifestError("manifest", "top level must be an object")
    _check_keys(data, ("manifold", "soliton", "fit"), "manifest")
    if "manifold" not in data:
        raise ManifestError("manifold", "missing block")
    if not isinstance(data["manifold"], dict):
        raise ManifestError("manifold", "expected an object")
    ch = _parse_manifold(data["manifold"])
    soliton = None
    if "soliton" in data:
        if not isinstance(data["soliton"], dict):
            raise ManifestError("soliton", "expected an object")
        soliton = _parse_soliton(data["soliton"], ch)
    fit = None
    if "fit" in data:
        if not isinstance(data["fit"], dict):
            raise ManifestError("fit", "expected an object")
        fit = _parse_fit(data["fit"], ch)
    return Manifest(name=ch.name, chart=ch, soliton=soliton, fit=fit)


def load_manifest(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ManifestError("manifest", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ManifestError("manifest", f"invalid JSON in {path}: {err}") from err
    return parse_manifest(data)


def bundled_names():
    root = resources.files("solitonlab").joinpath("manifests")
    return tuple(sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    ))


def bundled(name):
    root = resources.files("solitonlab").joinpath("manifests")
    entry = root.joinpath(f"{name}.json")
    if not entry.is_file():
        raise ManifestError(
            "manifest",
            f"no bundled manifest {name!r}; available: {', '.join(bundled_names())}",
        )
    return parse_manifest(json.loads(entry.read_text(encoding="utf-8")))

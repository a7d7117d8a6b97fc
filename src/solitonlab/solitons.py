"""Soliton residuals, identity checks and theorem verdict evaluators.

The two equations handled here, for a metric g, a potential field xi (possibly
grad f), and reals lambda != 0 and mu, are

    ricci :   L_xi L_xi g + lambda L_xi g + Ric - mu g       = 0
    yamabe:   L_xi L_xi g + lambda L_xi g - (mu - r) g       = 0

Every check returns a CheckReport.  Unconditional identities compare two
independently assembled sides pointwise on the grid.  Conditional statements
carry hypothesis residuals (how far the input is from satisfying the premises)
next to conclusion residuals, and the verdict lattice is fixed:
identity-holds requires conclusions and hypotheses within tolerance,
hypothesis-not-met fires whenever some hypothesis residual exceeds tolerance,
and violated marks a conclusion failing under satisfied hypotheses.

Structural premises that are not numbers (wrong equation kind for a theorem
stated for one kind only, or a dimension bound) are encoded as indicator
hypothesis residuals taking the values 0.0 or 1.0, with an explanatory note.

Every field quantity the checks read has one definition, as a lazily
computed attribute of ``Workspace``; ``workspace(target, grid)`` caches one
per soliton or bare field and grid, and computes only what is read.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Tuple

import numpy as np

from .geometry import (
    Chart,
    ScalarField,
    VectorField,
    cov_accel,
    div_sym2,
    div_vector,
    frame,
    gradient_vector_jets,
    hessian,
    laplacian_jet,
    lie_metric_jets,
    lie_sym2,
    lie_sym2_jet,
    lie_sym2_jet2,
    nabla_vec_norm2,
    norm2_covec,
    norm2_sym2,
    raise_covec,
    ric_vv,
    scalar_jets,
    trace_g,
    vector_jets,
)
from .quadrature import default_grid, grid_nodes

KINDS = ("ricci", "yamabe")

CHECK_IDS = (
    "trace_lie2",
    "bochner",
    "lemma_hessian",
    "div_lie",
    "prop_p2",
    "contracted_trace",
    "remark_csc",
    "schur",
    "T-C",
    "T-1",
    "T-2",
    "T-COR",
    "T-SQ",
    "T-N2",
    "P-CSC",
)

GRADIENT_ONLY = (
    "bochner",
    "lemma_hessian",
    "div_lie",
    "prop_p2",
    "contracted_trace",
    "T-1",
    "T-2",
    "T-COR",
    "T-SQ",
    "T-N2",
    "P-CSC",
)


class SolitonError(ValueError):
    pass


@dataclass(frozen=True)
class Tolerances:
    pointwise: float = 1e-8
    integral: float = 1e-7
    hypothesis: float = 1e-7
    slack: float = 1e-7

    def as_dict(self):
        return {
            "pointwise": self.pointwise,
            "integral": self.integral,
            "hypothesis": self.hypothesis,
            "slack": self.slack,
        }

    @classmethod
    def uniform(cls, tol):
        return cls(pointwise=tol, integral=tol, hypothesis=tol, slack=tol)


@dataclass(frozen=True)
class SolitonSpec:
    """One soliton structure: equation kind, potential, and the two reals."""

    name: str
    chart: Chart
    kind: str
    lam: float
    mu: float
    potential: Optional[ScalarField] = None
    vector: Optional[VectorField] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SolitonError(f"unknown soliton kind {self.kind!r}")
        if self.lam == 0.0:
            raise SolitonError("lambda must be nonzero")
        if (self.potential is None) == (self.vector is None):
            raise SolitonError("specify exactly one of potential or vector")

    @property
    def dim(self):
        return self.chart.dim

    @property
    def is_gradient(self):
        return self.potential is not None


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    verdict: str
    max_residual: float
    residuals: dict
    hypothesis_residuals: dict
    integrals: dict
    info: dict
    grid: Tuple[int, ...]
    tolerances: dict
    notes: Tuple[str, ...] = ()


# ------------------------------------------------------------ field assembly


def residual_tensor(kind, lam, mu, fr, U, T):
    """The soliton residual from U = L_xi L_xi g and T = L_xi g."""
    if kind == "ricci":
        return U + lam * T + fr.Ric - mu * fr.g
    return U + lam * T - (mu - fr.r)[..., None, None] * fr.g


def _phi_laplacian(fr, sj):
    """Laplacian of |grad f|^2 from order-3 jets of f (uses third partials)."""
    ginv, dginv, d2ginv = fr.ginv, fr.dginv, fr.d2ginv
    df, d2f, d3f = sj.df, sj.d2f, sj.d3f
    dphi = np.einsum("...iab,...a,...b->...i", dginv, df, df) + 2.0 * np.einsum(
        "...ab,...a,...ib->...i", ginv, df, d2f
    )
    d2phi = (
        np.einsum("...ijab,...a,...b->...ij", d2ginv, df, df)
        + 2.0 * np.einsum("...iab,...a,...jb->...ij", dginv, df, d2f)
        + 2.0 * np.einsum("...jab,...a,...ib->...ij", dginv, df, d2f)
        + 2.0 * np.einsum("...ab,...ia,...jb->...ij", ginv, d2f, d2f)
        + 2.0 * np.einsum("...ab,...a,...ijb->...ij", ginv, df, d3f)
    )
    hess_phi = d2phi - np.einsum("...kij,...k->...ij", fr.Gamma, dphi)
    return np.einsum("...ij,...ij->...", ginv, hess_phi)


def grid_frame(ch, grid=None):
    """Cached curvature frame on a chart's quadrature nodes.

    ``grid=None`` means ``default_grid(ch)`` and shares its cache entry.
    """
    return _grid_frame(ch, default_grid(ch) if grid is None else grid)


@lru_cache(maxsize=6)
def _grid_frame(ch, grid):
    x, _ = grid_nodes(ch, grid)
    return frame(ch, x)


grid_frame.cache_info = _grid_frame.cache_info
grid_frame.cache_clear = _grid_frame.cache_clear


class Workspace:
    """The field quantities the checks read, for one soliton or one bare
    ScalarField/VectorField on one grid.  Each is computed the first time it
    is read; ``residual`` needs a SolitonSpec."""

    def __init__(self, target, grid):
        self.target = target
        self.grid = grid
        if isinstance(target, SolitonSpec):
            self.field = target.potential if target.is_gradient else target.vector
        else:
            self.field = target
        self.x, self.w = grid_nodes(target.chart, grid)
        self.fr = grid_frame(target.chart, grid)

    def integral(self, values):
        """Quadrature of nodal values against the Riemannian volume."""
        return float(np.sum(values * self.w * self.fr.sqrtg))

    @cached_property
    def sj(self):
        return scalar_jets(self.field, self.x, order=4)

    @cached_property
    def vj(self):
        if isinstance(self.field, ScalarField):
            return gradient_vector_jets(self.fr, self.sj)
        return vector_jets(self.field, self.x)

    @cached_property
    def Tjets(self):
        """(T, dT) for T = L_xi g."""
        return lie_metric_jets(self.fr, self.vj)

    T = property(lambda self: self.Tjets[0])
    dT = property(lambda self: self.Tjets[1])

    @cached_property
    def U(self):
        """L_xi L_xi g."""
        return lie_sym2(self.vj, self.T, self.dT)

    @cached_property
    def dU(self):
        fr, vj = self.fr, self.vj
        d2T = lie_sym2_jet2(vj, fr.g, fr.dg, fr.d2g, fr.d3g)
        return lie_sym2_jet(vj, self.T, self.dT, d2T)

    @cached_property
    def traceU(self):
        return trace_g(self.fr, self.U)

    @cached_property
    def dtraceU(self):
        fr = self.fr
        return np.einsum("...aij,...ij->...a", fr.dginv, self.U) + np.einsum(
            "...ij,...aij->...a", fr.ginv, self.dU
        )

    @cached_property
    def divU(self):
        return div_sym2(self.fr, self.U, self.dU)

    @cached_property
    def divxi(self):
        return div_vector(self.fr, self.vj.xi, self.vj.dxi)

    @cached_property
    def residual(self):
        t = self.target
        return residual_tensor(t.kind, t.lam, t.mu, self.fr, self.U, self.T)

    @cached_property
    def H(self):
        return hessian(self.fr, self.sj)

    @cached_property
    def lap(self):
        return trace_g(self.fr, self.H)

    @cached_property
    def dlap(self):
        return laplacian_jet(self.fr, self.sj)

    @cached_property
    def gfr(self):
        """g(grad f, grad r)."""
        return np.einsum("...ab,...a,...b->...", self.fr.ginv, self.sj.df,
                         self.fr.dr)

    @cached_property
    def div_cov(self):
        """div(nabla_xi xi)."""
        return div_vector(self.fr, *cov_accel(self.fr, self.vj))

    @cached_property
    def lap_phi(self):
        """lap |grad f|^2."""
        return _phi_laplacian(self.fr, self.sj)


def workspace(target, grid=None):
    """The cached Workspace of a SolitonSpec or a bare field on a grid;
    ``grid=None`` means ``default_grid(target.chart)`` and shares its cache
    entry."""
    return _workspace(target, default_grid(target.chart) if grid is None else grid)


_workspace = lru_cache(maxsize=4)(Workspace)


workspace.cache_info = _workspace.cache_info
workspace.cache_clear = _workspace.cache_clear


def _vol_mean(ws, values):
    return ws.integral(values) / ws.integral(1.0)


def _max_sym2(ws, T):
    return float(np.sqrt(np.max(norm2_sym2(ws.fr, T))))


def _max_covec(ws, w):
    return float(np.sqrt(np.max(norm2_covec(ws.fr, w))))


def _max_abs(values):
    return float(np.max(np.abs(values)))


# --------------------------------------------------------------- the reports


def _build_report(check_id, grid, tol, conclusions, hypotheses,
                  integrals=None, info=None, notes=()):
    """conclusions/hypotheses: name -> (value, tolerance)."""
    residuals = {k: float(v) for k, (v, _) in conclusions.items()}
    hyp = {k: float(v) for k, (v, _) in hypotheses.items()}
    conclusions_ok = all(v <= t for v, t in conclusions.values())
    hypotheses_ok = all(v <= t for v, t in hypotheses.values())
    if not hypotheses_ok:
        verdict = "hypothesis-not-met"
    elif conclusions_ok:
        verdict = "identity-holds"
    else:
        verdict = "violated"
    return CheckReport(
        check_id=check_id,
        verdict=verdict,
        max_residual=max(residuals.values(), default=0.0),
        residuals=residuals,
        hypothesis_residuals=hyp,
        integrals=dict(integrals or {}),
        info=dict(info or {}),
        grid=tuple(grid.counts),
        tolerances=tol.as_dict(),
        notes=tuple(notes),
    )


def _require_gradient(target, check_id):
    """A SolitonSpec must carry a potential; a bare field passes through."""
    if isinstance(target, SolitonSpec) and not target.is_gradient:
        raise SolitonError(
            f"check {check_id!r} needs a gradient potential, and soliton "
            f"{target.name!r} carries an explicit vector field"
        )


def _soliton_gates(ws, tol, trace_free=False, const_trace=False, div_free=False):
    """The recurring hypothesis residuals, in display order."""
    gates = {"soliton_residual": (_max_sym2(ws, ws.residual), tol.hypothesis)}
    if trace_free:
        gates["trace_lie2_max"] = (_max_abs(ws.traceU), tol.hypothesis)
    if const_trace:
        gates["grad_trace_lie2_max"] = (_max_covec(ws, ws.dtraceU), tol.hypothesis)
    if div_free:
        gates["div_lie2_max"] = (_max_covec(ws, ws.divU), tol.hypothesis)
    return gates


def killing_residual(target, grid=None):
    """max over nodes of the norm of L_xi g; zero exactly for Killing fields."""
    ws = workspace(target, grid)
    return _max_sym2(ws, ws.T)


def identity_trace_lie2(target, grid=None, tol=Tolerances()):
    """trace(L_xi L_xi g) = 2(|nabla xi|^2 + div(nabla_xi xi) - Ric(xi, xi))."""
    ws = workspace(target, grid)
    fr, vj = ws.fr, ws.vj
    rhs = 2.0 * (
        nabla_vec_norm2(fr, vj) + ws.div_cov - ric_vv(fr, vj.xi, vj.xi)
    )
    return _build_report(
        "trace_lie2", ws.grid, tol,
        conclusions={"trace_formula": (_max_abs(ws.traceU - rhs), tol.pointwise)},
        hypotheses={},
    )


def identity_bochner(target, grid=None, tol=Tolerances()):
    """(1/2) lap |grad f|^2 = |Hess f|^2 + Ric(grad f, grad f) + g(grad lap f, grad f)."""
    _require_gradient(target, "bochner")
    ws = workspace(target, grid)
    fr, sj = ws.fr, ws.sj
    gradf = raise_covec(fr, sj.df)
    rhs = (
        norm2_sym2(fr, ws.H)
        + ric_vv(fr, gradf, gradf)
        + np.einsum("...ab,...a,...b->...", fr.ginv, ws.dlap, sj.df)
    )
    return _build_report(
        "bochner", ws.grid, tol,
        conclusions={"bochner": (_max_abs(0.5 * ws.lap_phi - rhs), tol.pointwise)},
        hypotheses={},
    )


def _lemma_coef(spec):
    n = spec.dim
    return n / (2 * spec.lam) if spec.kind == "yamabe" else 1.0 / (2 * spec.lam)


def identity_lemma_hessian(spec, grid=None, tol=Tolerances()):
    """The Hessian lemma for gradient solitons with trace-free L_xi L_xi g.

    Four display lines, with c = n/(2 lambda) for yamabe and 1/(2 lambda)
    for ricci, phi = |grad f|^2 and A = nabla_{grad f} grad f:

        (1/2) lap phi = |Hess f|^2 + Ric(grad f, grad f) - c g(grad f, grad r)
        (1/2) lap phi = 2 |Hess f|^2 + div A - c g(grad f, grad r)
        (1/2) lap phi = 2 Ric(grad f, grad f) - div A - c g(grad f, grad r)
        2 lambda g(grad lap f, grad f) = -(n or 1) g(grad f, grad r)
    """
    _require_gradient(spec, "lemma_hessian")
    ws = workspace(spec, grid)
    fr = ws.fr
    gradf = ws.vj.xi
    lhs = 0.5 * ws.lap_phi
    hess2 = norm2_sym2(fr, ws.H)
    ricff = ric_vv(fr, gradf, gradf)
    c = _lemma_coef(spec)
    glapf = np.einsum("...ab,...a,...b->...", fr.ginv, ws.dlap, ws.sj.df)
    traced_rhs_coef = float(spec.dim if spec.kind == "yamabe" else 1)
    lines = {
        "main": lhs - (hess2 + ricff - c * ws.gfr),
        "even_more_plus_div": lhs - (2 * hess2 + ws.div_cov - c * ws.gfr),
        "even_more_minus_div": lhs - (2 * ricff - ws.div_cov - c * ws.gfr),
        "traced_gradient": 2 * spec.lam * glapf + traced_rhs_coef * ws.gfr,
    }
    return _build_report(
        "lemma_hessian", ws.grid, tol,
        conclusions={k: (_max_abs(v), tol.pointwise) for k, v in lines.items()},
        hypotheses=_soliton_gates(ws, tol, trace_free=True),
    )


def identity_div_lie(spec, grid=None, tol=Tolerances()):
    """div(L_{grad f} g)(X) = 2 X(lap f) + 2 Ric(X, grad f), unconditionally,
    plus the conditional conclusion Ric(X, grad f) = coef g(X, grad r) with
    coef (n-1)/(2 lambda) for yamabe and 1/(4 lambda) for ricci, gated on the
    soliton equation with constant-trace and divergence-free L_xi L_xi g.
    X runs over the coordinate basis, so the lines compare covectors."""
    _require_gradient(spec, "div_lie")
    ws = workspace(spec, grid)
    fr = ws.fr
    gradf = ws.vj.xi
    divT = div_sym2(fr, ws.T, ws.dT)
    ric_gradf = np.einsum("...jb,...b->...j", fr.Ric, gradf)
    unconditional = divT - 2.0 * ws.dlap - 2.0 * ric_gradf
    coef = (
        (spec.dim - 1) / (2 * spec.lam)
        if spec.kind == "yamabe"
        else 1.0 / (4 * spec.lam)
    )
    conditional = ric_gradf - coef * fr.dr
    return _build_report(
        "div_lie", ws.grid, tol,
        conclusions={
            "div_lie_formula": (_max_covec(ws, unconditional), tol.pointwise),
            "ric_gradf_conclusion": (_max_covec(ws, conditional), tol.pointwise),
        },
        hypotheses=_soliton_gates(ws, tol, const_trace=True, div_free=True),
        notes=(
            "the divergence formula line is unconditional; only the "
            "Ric(X, grad f) conclusion relies on the hypotheses",
        ),
    )


def identity_prop_p2(spec, grid=None, tol=Tolerances()):
    """(1/2) lap |grad f|^2 against the trace-free divergence-free forms:
    ((n-2)/(n-1)) |Hess f|^2 - (1/(n-1)) div A for yamabe, -div A for ricci."""
    _require_gradient(spec, "prop_p2")
    ws = workspace(spec, grid)
    lhs = 0.5 * ws.lap_phi
    n = spec.dim
    if spec.kind == "yamabe":
        rhs = ((n - 2) / (n - 1)) * norm2_sym2(ws.fr, ws.H) - ws.div_cov / (n - 1)
    else:
        rhs = -ws.div_cov
    return _build_report(
        "prop_p2", ws.grid, tol,
        conclusions={"prop_p2": (_max_abs(lhs - rhs), tol.pointwise)},
        hypotheses=_soliton_gates(ws, tol, trace_free=True, div_free=True),
    )


def contracted_trace(spec, grid=None):
    """Pointwise (2 lambda lap f, n(mu - r)) for yamabe, (.., n mu - r) for
    ricci; the two agree for solitons with trace-free L_xi L_xi g."""
    _require_gradient(spec, "contracted_trace")
    ws = workspace(spec, grid)
    lhs = 2 * spec.lam * ws.lap
    if spec.kind == "yamabe":
        rhs = spec.dim * (spec.mu - ws.fr.r)
    else:
        rhs = spec.dim * spec.mu - ws.fr.r
    return lhs, rhs


def check_contracted_trace(spec, grid=None, tol=Tolerances()):
    _require_gradient(spec, "contracted_trace")
    ws = workspace(spec, grid)
    lhs, rhs = contracted_trace(spec, grid)
    return _build_report(
        "contracted_trace", ws.grid, tol,
        conclusions={"contracted_trace": (_max_abs(lhs - rhs), tol.pointwise)},
        hypotheses=_soliton_gates(ws, tol, trace_free=True),
        info={
            "mean_lhs": _vol_mean(ws, lhs),
            "mean_rhs": _vol_mean(ws, rhs),
        },
    )


def remark_csc(spec, grid=None, tol=Tolerances()):
    """Constant div(xi) and constant trace(L_xi L_xi g) on a soliton force
    constant scalar curvature; deviations are measured from volume means."""
    ws = workspace(spec, grid)
    div_dev = _max_abs(ws.divxi - _vol_mean(ws, ws.divxi))
    trace_dev = _max_abs(ws.traceU - _vol_mean(ws, ws.traceU))
    r_dev = _max_abs(ws.fr.r - _vol_mean(ws, ws.fr.r))
    hypotheses = _soliton_gates(ws, tol)
    hypotheses["div_xi_deviation"] = (div_dev, tol.hypothesis)
    hypotheses["trace_lie2_deviation"] = (trace_dev, tol.hypothesis)
    return _build_report(
        "remark_csc", ws.grid, tol,
        conclusions={"scalar_curvature_deviation": (r_dev, tol.pointwise)},
        hypotheses=hypotheses,
    )


def check_schur(ch, grid=None, tol=Tolerances()):
    """div Ric = dr / 2, the contracted second Bianchi identity."""
    if grid is None:
        grid = default_grid(ch)
    fr = grid_frame(ch, grid)
    residual = div_sym2(fr, fr.Ric, fr.dRic) - 0.5 * fr.dr
    value = float(np.sqrt(np.max(norm2_covec(fr, residual))))
    return _build_report(
        "schur", grid, tol,
        conclusions={"schur": (value, tol.pointwise)},
        hypotheses={},
    )


# ------------------------------------------------------------------ theorems


def _inequality_gate(name, lhs, rhs, tol, notes):
    """Hypothesis 'lhs >= rhs', violated by max(0, rhs - lhs)."""
    violation = max(0.0, rhs - lhs)
    if abs(lhs - rhs) <= tol.slack:
        notes.append(f"boundary-case inequality {name}: |lhs - rhs| <= slack")
    return violation


def _kind_gate(spec, wanted, hypotheses, notes):
    ok = spec.kind == wanted
    hypotheses["kind"] = (0.0 if ok else 1.0, 0.5)
    if not ok:
        notes.append(
            f"stated for the {wanted} equation; spec kind is {spec.kind} "
            "(indicator hypothesis, 1.0 means mismatch)"
        )


def evaluate_theorem(tag, spec, grid=None, tol=Tolerances()):
    if tag in GRADIENT_ONLY:
        _require_gradient(spec, tag)
    ws = workspace(spec, grid)
    fr = ws.fr
    n = spec.dim
    notes = []
    integrals = {}
    info = {}

    if tag == "T-C":
        hypotheses = _soliton_gates(ws, tol, trace_free=True)
        ric_xx = ric_vv(fr, ws.vj.xi, ws.vj.xi)
        integrals["int_ric_xi_xi"] = ws.integral(ric_xx)
        hypotheses["int_ric_xi_xi_nonpositive"] = (
            _inequality_gate("int_ric_xi_xi <= 0", 0.0,
                             integrals["int_ric_xi_xi"], tol, notes),
            tol.slack,
        )
        conclusions = {"killing_residual": (_max_sym2(ws, ws.T), tol.pointwise)}
        return _build_report("T-C", ws.grid, tol, conclusions, hypotheses,
                             integrals, info, notes)

    if tag in ("T-1", "T-2"):
        wanted = "yamabe" if tag == "T-1" else "ricci"
        hypotheses = _soliton_gates(ws, tol, trace_free=True)
        _kind_gate(spec, wanted, hypotheses, notes)
        coef = n / (2 * spec.lam) if tag == "T-1" else 1.0 / (2 * spec.lam)
        gradf = ws.vj.xi
        integrals["int_ric_gradf_gradf"] = ws.integral(ric_vv(fr, gradf, gradf))
        integrals["int_g_gradf_gradr"] = ws.integral(ws.gfr)
        hypotheses["ricci_pairing_lower_bound"] = (
            _inequality_gate(
                "int Ric(grad f, grad f) >= coef int g(grad f, grad r)",
                integrals["int_ric_gradf_gradf"],
                coef * integrals["int_g_gradf_gradr"],
                tol, notes,
            ),
            tol.slack,
        )
        integrals["int_hess_norm2"] = ws.integral(norm2_sym2(fr, ws.H))
        r_target = spec.mu if tag == "T-1" else n * spec.mu
        conclusions = {
            "int_hess_norm2": (integrals["int_hess_norm2"], tol.integral),
            "scalar_curvature_minus_target": (
                _max_abs(fr.r - r_target), tol.pointwise,
            ),
        }
        info["r_target"] = r_target
        return _build_report(tag, ws.grid, tol, conclusions, hypotheses,
                             integrals, info, notes)

    if tag == "T-COR":
        hypotheses = _soliton_gates(ws, tol, trace_free=True)
        integrals["lam_int_g_gradf_gradr"] = spec.lam * ws.integral(ws.gfr)
        hypotheses["lam_int_g_gradf_gradr_nonpositive"] = (
            _inequality_gate("lam int g(grad f, grad r) <= 0", 0.0,
                             integrals["lam_int_g_gradf_gradr"], tol, notes),
            tol.slack,
        )
        integrals["int_hess_norm2"] = ws.integral(norm2_sym2(fr, ws.H))
        conclusions = {"int_hess_norm2": (integrals["int_hess_norm2"], tol.integral)}
        return _build_report("T-COR", ws.grid, tol, conclusions, hypotheses,
                             integrals, info, notes)

    if tag == "T-SQ":
        hypotheses = _soliton_gates(ws, tol, trace_free=True)
        gradf = ws.vj.xi
        integrals["int_ric_gradf_gradf"] = ws.integral(ric_vv(fr, gradf, gradf))
        if spec.kind == "yamabe":
            deficit = (spec.mu - fr.r) ** 2
            coef = n * n / (4 * spec.lam**2)
            integrals["int_deficit_sq"] = ws.integral(deficit)
        else:
            deficit = (n * spec.mu - fr.r) ** 2
            coef = 1.0 / (4 * spec.lam**2)
            integrals["int_deficit_sq"] = ws.integral(deficit)
        hypotheses["ricci_pairing_lower_bound"] = (
            _inequality_gate(
                "int Ric(grad f, grad f) >= coef int deficit^2",
                integrals["int_ric_gradf_gradf"],
                coef * integrals["int_deficit_sq"],
                tol, notes,
            ),
            tol.slack,
        )
        integrals["int_hess_norm2"] = ws.integral(norm2_sym2(fr, ws.H))
        conclusions = {"int_hess_norm2": (integrals["int_hess_norm2"], tol.integral)}
        return _build_report("T-SQ", ws.grid, tol, conclusions, hypotheses,
                             integrals, info, notes)

    if tag == "T-N2":
        hypotheses = _soliton_gates(ws, tol, trace_free=True, div_free=True)
        _kind_gate(spec, "yamabe", hypotheses, notes)
        ok = n > 2
        hypotheses["dimension_exceeds_two"] = (0.0 if ok else 1.0, 0.5)
        if not ok:
            notes.append(
                f"needs n > 2, chart dimension is {n} "
                "(indicator hypothesis, 1.0 means failure)"
            )
        integrals["int_hess_norm2"] = ws.integral(norm2_sym2(fr, ws.H))
        conclusions = {"int_hess_norm2": (integrals["int_hess_norm2"], tol.integral)}
        return _build_report("T-N2", ws.grid, tol, conclusions, hypotheses,
                             integrals, info, notes)

    if tag == "P-CSC":
        # The Remark weakens the constant-trace premise, so this gate asks
        # only for divergence-free; the trace deviation is reported as info.
        hypotheses = _soliton_gates(ws, tol, div_free=True)
        gradf = ws.vj.xi
        gradr = raise_covec(fr, fr.dr)
        pairing = ric_vv(fr, gradf, gradr)
        integrals["lam_int_ric_gradf_gradr"] = spec.lam * ws.integral(pairing)
        hypotheses["lam_int_ric_gradf_gradr_nonpositive"] = (
            _inequality_gate("lam int Ric(grad f, grad r) <= 0", 0.0,
                             integrals["lam_int_ric_gradf_gradr"], tol, notes),
            tol.slack,
        )
        coef = (n - 1) / 2.0 if spec.kind == "yamabe" else 0.25
        norm_gradr = norm2_covec(fr, fr.dr)
        conclusions = {
            "scalar_curvature_deviation": (
                _max_abs(fr.r - _vol_mean(ws, fr.r)), tol.pointwise,
            ),
            "proof_identity": (
                _max_abs(spec.lam * pairing - coef * norm_gradr), tol.pointwise,
            ),
        }
        info["trace_lie2_deviation"] = _max_abs(
            ws.traceU - _vol_mean(ws, ws.traceU)
        )
        notes.append(
            "constant-trace is not gated here, only divergence-free; "
            "the trace deviation is reported as info"
        )
        return _build_report("P-CSC", ws.grid, tol, conclusions, hypotheses,
                             integrals, info, notes)

    raise SolitonError(f"unknown theorem tag {tag!r}")


# ----------------------------------------------------------------- dispatch


def run_check(spec, check_id, grid=None, tol=Tolerances()):
    """Uniform entry point used by the command line tool."""
    if check_id == "trace_lie2":
        return identity_trace_lie2(spec, grid, tol)
    if check_id == "bochner":
        return identity_bochner(spec, grid, tol)
    if check_id == "lemma_hessian":
        return identity_lemma_hessian(spec, grid, tol)
    if check_id == "div_lie":
        return identity_div_lie(spec, grid, tol)
    if check_id == "prop_p2":
        return identity_prop_p2(spec, grid, tol)
    if check_id == "contracted_trace":
        return check_contracted_trace(spec, grid, tol)
    if check_id == "remark_csc":
        return remark_csc(spec, grid, tol)
    if check_id == "schur":
        return check_schur(spec.chart, grid, tol)
    if check_id in ("T-C", "T-1", "T-2", "T-COR", "T-SQ", "T-N2", "P-CSC"):
        return evaluate_theorem(check_id, spec, grid, tol)
    raise SolitonError(
        f"unknown check id {check_id!r}; valid ids: {', '.join(CHECK_IDS)}"
    )

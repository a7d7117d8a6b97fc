"""Soliton residuals and the catalog of identity and theorem checks.

The two equations handled here, for a metric g, a potential field xi (possibly
grad f), and reals lambda != 0 and mu, are

    ricci :   L_xi L_xi g + lambda L_xi g + Ric - mu g       = 0
    yamabe:   L_xi L_xi g + lambda L_xi g - (mu - r) g       = 0

Every check is one row of an ordered catalog, and ``evaluate_theorem(check_id,
target, grid, tol)`` turns any row into a CheckReport.  A row says whether the
check needs a gradient potential, which premises on L_xi L_xi g it gates next
to the soliton equation (none for the unconditional identities), the equation
kind and the n > 2 bound a theorem is stated for, encoded as 0/1 indicator
hypotheses with a note, whether it concludes int |Hess f|^2 = 0, and the
function computing its own conclusions.  Unconditional identities compare two
independently assembled sides pointwise on the grid.  The verdict lattice is
fixed: hypothesis-not-met whenever some hypothesis residual exceeds its
tolerance, else identity-holds if every conclusion is within tolerance, else
violated.

Every field quantity the checks read has one definition, as a lazily
computed attribute of ``Workspace``; ``workspace(target, grid)`` keeps the
last two, one per soliton or bare field and grid, and computes only what is
read.
"""

import math
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional, Tuple

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
    laplacian,
    leibniz,
    lie_jet,
    lie_metric_jets,
    nabla_vec_norm2,
    norm2_covec,
    norm2_sym2,
    raise_covec,
    ric_vv,
    scalar_jets,
    trace_g,
    trace_g_jet,
    vector_jets,
)
from .quadrature import default_grid, grid_nodes
from .records import asdict, record

KINDS = ("ricci", "yamabe")


class SolitonError(ValueError):
    pass


@record
class Tolerances:
    pointwise: float = 1e-8
    integral: float = 1e-7
    hypothesis: float = 1e-7
    slack: float = 1e-7

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise SolitonError(
                    f"tolerance {name} must be finite and nonnegative, got {value!r}"
                )

    @classmethod
    def uniform(cls, tol):
        return cls(pointwise=tol, integral=tol, hypothesis=tol, slack=tol)


@record
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


@record
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
    G, F = [fr.ginv, fr.dginv, fr.d2ginv], sj[1:4]
    return laplacian(fr, [leibniz("...ab,...a,...b->...", G, F, F, k=k)
                          for k in range(3)])


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


def integral(fr, w, values):
    """Quadrature of nodal values against the Riemannian volume, given the
    grid's frame and quadrature weights."""
    return float(np.sum(values * w * fr.sqrtg))


def max_norm(fr, values):
    """The largest value over the nodes of |.| of a scalar field, or of the
    g-norm of a covector or symmetric 2-tensor field; the rank is what
    ``values`` has beyond the grid's axes.  A plain number passes through."""
    rank = np.ndim(values) - fr.r.ndim
    if rank < 0:
        return values
    if rank == 0:
        return float(np.max(np.abs(values)))
    norm2 = norm2_covec if rank == 1 else norm2_sym2
    return float(np.sqrt(np.max(norm2(fr, values))))


class Workspace:
    """The field quantities and gate maxima the checks read, for one soliton
    or one bare ScalarField/VectorField on one grid.  Each is computed the
    first time it is read; the residual and its maximum need a SolitonSpec."""

    def __init__(self, target, grid):
        self.target = target
        if isinstance(target, SolitonSpec):
            self.field = target.potential if target.is_gradient else target.vector
        else:
            self.field = target
        self.x, self.w = grid_nodes(target.chart, grid)
        self.fr = grid_frame(target.chart, grid)
        # L_grad f g = 2 Hess f; a FitProblem's result keeps the Lie route.
        self.from_hessian = isinstance(self.field, ScalarField)

    def integral(self, values):
        return integral(self.fr, self.w, values)

    @cached_property
    def sj(self):
        """f's jets; only ``dU``, which a SolitonSpec's gates read, needs d4f."""
        order = 4 if isinstance(self.target, SolitonSpec) else 3
        return scalar_jets(self.field, self.x, order=order)

    @cached_property
    def vj(self):
        """[xi, dxi, d2xi, d3xi]; from the Hessian route, only to d2xi."""
        if isinstance(self.field, ScalarField):
            return gradient_vector_jets(
                self.fr, self.sj[:4] if self.from_hessian else self.sj)
        return vector_jets(self.field, self.x)

    @cached_property
    def Tjets(self):
        """(T, dT) for T = L_xi g, which is 2 Hess f for xi = grad f."""
        if self.from_hessian:
            return 2 * self.H, 2 * self.dH
        return lie_metric_jets(self.fr, self.vj)

    T = property(lambda self: self.Tjets[0])
    dT = property(lambda self: self.Tjets[1])

    @cached_property
    def U(self):
        """L_xi L_xi g."""
        return lie_jet(self.vj, self.Tjets, 0)

    @cached_property
    def dU(self):
        fr = self.fr
        d2T = (2 * hessian(fr, self.sj, k=2) if self.from_hessian
               else lie_jet(self.vj, [fr.g, fr.dg, fr.d2g, fr.d3g], 2))
        return lie_jet(self.vj, [self.T, self.dT, d2T], 1)

    @cached_property
    def traceU(self):
        return trace_g(self.fr, self.U)

    @cached_property
    def trace_lie2_max(self):
        return max_norm(self.fr, self.traceU)

    @cached_property
    def grad_trace_lie2_max(self):
        return max_norm(self.fr, trace_g_jet(self.fr, self.U, self.dU))

    @cached_property
    def div_lie2_max(self):
        return max_norm(self.fr, div_sym2(self.fr, self.U, self.dU))

    @cached_property
    def divxi(self):
        return div_vector(self.fr, *self.vj[:2])

    @cached_property
    def residual(self):
        t = self.target
        return residual_tensor(t.kind, t.lam, t.mu, self.fr, self.U, self.T)

    @cached_property
    def soliton_residual(self):
        return max_norm(self.fr, self.residual)

    @cached_property
    def ric_xi(self):
        """Ric(xi, xi)."""
        return ric_vv(self.fr, self.vj[0], self.vj[0])

    @cached_property
    def H(self):
        return hessian(self.fr, self.sj)

    @cached_property
    def lap(self):
        return trace_g(self.fr, self.H)

    @cached_property
    def hess2(self):
        """|Hess f|^2."""
        return norm2_sym2(self.fr, self.H)

    @cached_property
    def dH(self):
        return hessian(self.fr, self.sj, k=1)

    @cached_property
    def dlap(self):
        return trace_g_jet(self.fr, self.H, self.dH)

    @cached_property
    def glapf(self):
        """g(grad lap f, grad f)."""
        return np.einsum("...ab,...a,...b->...", self.fr.ginv, self.dlap,
                         self.sj[1])

    @cached_property
    def gfr(self):
        """g(grad f, grad r)."""
        return np.einsum("...ab,...a,...b->...", self.fr.ginv, self.sj[1],
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


# No caller reads more than two (README, Python API); each entry holds
# full-grid field arrays, so more would only keep dead ones alive.
_workspace = lru_cache(maxsize=2)(Workspace)


workspace.cache_info = _workspace.cache_info
workspace.cache_clear = _workspace.cache_clear


def _vol_mean(ws, values):
    return ws.integral(values) / ws.integral(1.0)


def _deviation(ws, values):
    """values less their volume mean."""
    return values - _vol_mean(ws, values)


# --------------------------------------------------------------- the reports


def _build_report(check_id, fr, grid, tol, conclusions, hypotheses,
                  integrals=None, info=None, notes=()):
    """conclusions/hypotheses: name -> (residual field or value, tolerance),
    each reduced by ``max_norm`` on the frame ``fr``."""
    residuals = {k: float(max_norm(fr, v)) for k, (v, _) in conclusions.items()}
    hyp = {k: float(max_norm(fr, v)) for k, (v, _) in hypotheses.items()}
    conclusions_ok = all(residuals[k] <= t for k, (_, t) in conclusions.items())
    hypotheses_ok = all(hyp[k] <= t for k, (_, t) in hypotheses.items())
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
        tolerances=asdict(tol),
        notes=tuple(notes),
    )


def _soliton_gates(ws, tol, gates):
    """The soliton equation and the premises ``gates`` on U = L_xi L_xi g as
    hypotheses, each the Workspace maximum of its name, in display order."""
    return {name: (getattr(ws, name), tol.hypothesis)
            for name in ("soliton_residual",) + gates}


def _inequality_gate(name, lhs, rhs, tol, notes):
    """Hypothesis 'lhs >= rhs', violated by max(0, rhs - lhs)."""
    if abs(lhs - rhs) <= tol.slack:
        notes.append(f"boundary-case inequality {name}: |lhs - rhs| <= slack")
    return max(0.0, rhs - lhs), tol.slack


def _indicator_gate(ok, notes, failure, note):
    """A structural premise as a 0/1 hypothesis residual."""
    if not ok:
        notes.append(f"{note} (indicator hypothesis, 1.0 means {failure})")
    return 0.0 if ok else 1.0, 0.5


# ------------------------------------------------------------ the statements
# Each takes the Workspace (the frame, for a frame-only check), the tolerances
# and the notes, which it may append to, and returns the check's own
# (conclusions, hypotheses, integrals, info), with name -> (residual field or
# value, tolerance); the report keeps each field's ``max_norm``.


def _kind_constants(kind, n, lam, mu):
    """The per-kind constants (s, r_target, c_dr): the trace of the soliton
    equation with trace-free L_xi L_xi g reads 2 lambda lap f =
    s (r_target - r), and its divergence Ric(grad f) = c_dr dr."""
    if kind == "yamabe":
        return n, mu, (n - 1) / (2 * lam)
    return 1, n * mu, 1 / (4 * lam)


def _trace_lie2(ws, tol, notes):
    """trace(L_xi L_xi g) = 2(|nabla xi|^2 + div(nabla_xi xi) - Ric(xi, xi))."""
    rhs = 2.0 * (nabla_vec_norm2(ws.fr, ws.vj) + ws.div_cov - ws.ric_xi)
    return {"trace_formula": (ws.traceU - rhs, tol.pointwise)}, {}, {}, {}


def _bochner(ws, tol, notes):
    """(1/2) lap |grad f|^2 = |Hess f|^2 + Ric(grad f, grad f) + g(grad lap f, grad f)."""
    rhs = ws.hess2 + ws.ric_xi + ws.glapf
    return {"bochner": (0.5 * ws.lap_phi - rhs, tol.pointwise)}, {}, {}, {}


def _lemma_hessian(ws, tol, notes):
    """The Hessian lemma for gradient solitons with trace-free L_xi L_xi g.

    Four display lines, with c = s/(2 lambda) (n/(2 lambda) for yamabe and
    1/(2 lambda) for ricci), phi = |grad f|^2 and A = nabla_{grad f} grad f:

        (1/2) lap phi = |Hess f|^2 + Ric(grad f, grad f) - c g(grad f, grad r)
        (1/2) lap phi = 2 |Hess f|^2 + div A - c g(grad f, grad r)
        (1/2) lap phi = 2 Ric(grad f, grad f) - div A - c g(grad f, grad r)
        2 lambda g(grad lap f, grad f) = -s g(grad f, grad r)
    """
    spec, hess2, ricff = ws.target, ws.hess2, ws.ric_xi
    s, _, _ = _kind_constants(spec.kind, spec.dim, spec.lam, spec.mu)
    lhs = 0.5 * ws.lap_phi
    c = s / (2 * spec.lam)
    lines = {
        "main": lhs - (hess2 + ricff - c * ws.gfr),
        "even_more_plus_div": lhs - (2 * hess2 + ws.div_cov - c * ws.gfr),
        "even_more_minus_div": lhs - (2 * ricff - ws.div_cov - c * ws.gfr),
        "traced_gradient": 2 * spec.lam * ws.glapf + s * ws.gfr,
    }
    return {k: (v, tol.pointwise) for k, v in lines.items()}, {}, {}, {}


def _div_lie(ws, tol, notes):
    """div(L_{grad f} g)(X) = 2 X(lap f) + 2 Ric(X, grad f) unconditionally;
    gated on the soliton equation with constant-trace and divergence-free
    L_xi L_xi g, Ric(X, grad f) = c_dr g(X, grad r), c_dr = (n-1)/(2 lambda)
    for yamabe and 1/(4 lambda) for ricci.  X runs over the coordinate
    basis, so the lines compare covectors."""
    spec, fr = ws.target, ws.fr
    _, _, c_dr = _kind_constants(spec.kind, spec.dim, spec.lam, spec.mu)
    divT = div_sym2(fr, ws.T, ws.dT)
    ric_gradf = np.einsum("...jb,...b->...j", fr.Ric, ws.vj[0])
    unconditional = divT - 2.0 * ws.dlap - 2.0 * ric_gradf
    conditional = ric_gradf - c_dr * fr.dr
    notes.append(
        "the divergence formula line is unconditional; only the "
        "Ric(X, grad f) conclusion relies on the hypotheses"
    )
    return {
        "div_lie_formula": (unconditional, tol.pointwise),
        "ric_gradf_conclusion": (conditional, tol.pointwise),
    }, {}, {}, {}


def _prop_p2(ws, tol, notes):
    """(1/2) lap |grad f|^2 against the trace-free divergence-free forms:
    ((n-2)/(n-1)) |Hess f|^2 - (1/(n-1)) div A for yamabe, -div A for ricci,
    with A = nabla_{grad f} grad f."""
    spec, n = ws.target, ws.target.dim
    if spec.kind == "yamabe":
        rhs = ((n - 2) / (n - 1)) * ws.hess2 - ws.div_cov / (n - 1)
    else:
        rhs = -ws.div_cov
    return {"prop_p2": (0.5 * ws.lap_phi - rhs, tol.pointwise)}, {}, {}, {}


def _contracted_trace(ws, tol, notes):
    """Pointwise 2 lambda lap f = s (r_target - r): n(mu - r) for yamabe,
    n mu - r for ricci; the two sides agree for solitons with trace-free
    L_xi L_xi g."""
    spec = ws.target
    s, r_target, _ = _kind_constants(spec.kind, spec.dim, spec.lam, spec.mu)
    lhs = 2 * spec.lam * ws.lap
    rhs = s * (r_target - ws.fr.r)
    info = {"mean_lhs": _vol_mean(ws, lhs), "mean_rhs": _vol_mean(ws, rhs)}
    return {"contracted_trace": (lhs - rhs, tol.pointwise)}, {}, {}, info


def _remark_csc(ws, tol, notes):
    """Constant div(xi) and constant trace(L_xi L_xi g) on a soliton force
    constant scalar curvature; deviations are measured from volume means."""
    hypotheses = {
        "div_xi_deviation": (_deviation(ws, ws.divxi), tol.hypothesis),
        "trace_lie2_deviation": (_deviation(ws, ws.traceU), tol.hypothesis),
    }
    r_dev = _deviation(ws, ws.fr.r)
    return {"scalar_curvature_deviation": (r_dev, tol.pointwise)}, hypotheses, {}, {}


def _schur(fr, tol, notes):
    """div Ric = dr / 2, the contracted second Bianchi identity."""
    residual = div_sym2(fr, fr.Ric, fr.dRic) - 0.5 * fr.dr
    return {"schur": (residual, tol.pointwise)}, {}, {}, {}


def _nonpositive(name, label, value, tol, notes):
    """The hypothesis 'value <= 0' on the integral reported as ``name``."""
    gate = _inequality_gate(label, 0.0, value, tol, notes)
    return {f"{name}_nonpositive": gate}, {name: value}


def _t_c(ws, tol, notes):
    """Trace-free L_xi L_xi g and int Ric(xi, xi) <= 0 make xi Killing."""
    hypotheses, integrals = _nonpositive(
        "int_ric_xi_xi", "int_ric_xi_xi <= 0",
        ws.integral(ws.ric_xi), tol, notes)
    return {"killing_residual": (ws.T, tol.pointwise)}, hypotheses, integrals, {}


def _ricci_pairing(ws, tol, notes, coef, name, values, label):
    """The hypothesis int Ric(grad f, grad f) >= coef int values, with the
    integral of ``values`` reported as ``name`` and written ``label``."""
    integrals = {
        "int_ric_gradf_gradf": ws.integral(ws.ric_xi),
        name: ws.integral(values),
    }
    bound = _inequality_gate(
        f"int Ric(grad f, grad f) >= coef {label}",
        integrals["int_ric_gradf_gradf"], coef * integrals[name], tol, notes,
    )
    return {"ricci_pairing_lower_bound": bound}, integrals


def _pairing_triviality(ws, tol, notes, kind):
    """T-1 (yamabe) and T-2 (ricci): trace-free L_xi L_xi g and
    int Ric(grad f, grad f) >= c int g(grad f, grad r), c = s/(2 lambda),
    make the soliton trivial with r = r_target (mu resp. n mu)."""
    spec = ws.target
    s, r_target, _ = _kind_constants(kind, spec.dim, spec.lam, spec.mu)
    hypotheses, integrals = _ricci_pairing(
        ws, tol, notes, s / (2 * spec.lam),
        "int_g_gradf_gradr", ws.gfr, "int g(grad f, grad r)",
    )
    conclusions = {"scalar_curvature_minus_target": (ws.fr.r - r_target,
                                                      tol.pointwise)}
    return conclusions, hypotheses, integrals, {"r_target": r_target}


def _t_cor(ws, tol, notes):
    """Trace-free L_xi L_xi g and lambda int g(grad f, grad r) <= 0 make the
    soliton trivial."""
    hypotheses, integrals = _nonpositive(
        "lam_int_g_gradf_gradr", "lam int g(grad f, grad r) <= 0",
        ws.target.lam * ws.integral(ws.gfr), tol, notes)
    return {}, hypotheses, integrals, {}


def _t_sq(ws, tol, notes):
    """Trace-free L_xi L_xi g and int Ric(grad f, grad f) >= c int D^2, with
    D = r_target - r and c = s^2/(4 lambda^2) (D = mu - r, c = n^2/(4 lambda^2)
    for yamabe; D = n mu - r, c = 1/(4 lambda^2) for ricci), force triviality."""
    spec = ws.target
    s, r_target, _ = _kind_constants(spec.kind, spec.dim, spec.lam, spec.mu)
    hypotheses, integrals = _ricci_pairing(
        ws, tol, notes, s * s / (4 * spec.lam**2), "int_deficit_sq",
        (r_target - ws.fr.r) ** 2, "int deficit^2")
    return {}, hypotheses, integrals, {}


def _t_n2(ws, tol, notes):
    """The main theorem: a gradient yamabe soliton of dimension n > 2 with
    trace-free and divergence-free L_xi L_xi g is trivial."""
    return {}, {}, {}, {}


def _p_csc(ws, tol, notes):
    """Divergence-free L_xi L_xi g and lambda int Ric(grad f, grad r) <= 0
    force constant r, via lambda (Ric(grad f, grad r) - c_dr |grad r|^2) = 0,
    div_lie's conclusion paired with lambda grad r.  The Remark weakens the
    constant-trace premise, so only divergence-free is gated; the trace
    deviation is reported as info."""
    spec, fr = ws.target, ws.fr
    _, _, c_dr = _kind_constants(spec.kind, spec.dim, spec.lam, spec.mu)
    pairing = ric_vv(fr, ws.vj[0], raise_covec(fr, fr.dr))
    hypotheses, integrals = _nonpositive(
        "lam_int_ric_gradf_gradr", "lam int Ric(grad f, grad r) <= 0",
        spec.lam * ws.integral(pairing), tol, notes)
    identity = spec.lam * (pairing - c_dr * norm2_covec(fr, fr.dr))
    notes.append("constant-trace is not gated here, only divergence-free; "
                 "the trace deviation is reported as info")
    conclusions = {
        "scalar_curvature_deviation": (_deviation(ws, fr.r), tol.pointwise),
        "proof_identity": (identity, tol.pointwise),
    }
    info = {"trace_lie2_deviation": max_norm(fr, _deviation(ws, ws.traceU))}
    return conclusions, hypotheses, integrals, info


# ---------------------------------------------------------------- the catalog


@record
class _Check:
    """One catalog row; ``gates`` names the premise maxima on L_xi L_xi g
    that ``_soliton_gates`` reads next to the soliton residual, and a
    ``frame_only`` check reads nothing but the chart's frame."""

    conclude: Callable
    gradient: bool = False
    gates: Optional[Tuple[str, ...]] = None
    kind: Optional[str] = None
    above_two: bool = False
    hess_free: bool = False
    frame_only: bool = False


_TF, _DF = ("trace_lie2_max",), ("div_lie2_max",)

_CATALOG = {
    "trace_lie2": _Check(_trace_lie2),
    "bochner": _Check(_bochner, gradient=True),
    "lemma_hessian": _Check(_lemma_hessian, gradient=True, gates=_TF),
    "div_lie": _Check(_div_lie, gradient=True,
                      gates=("grad_trace_lie2_max",) + _DF),
    "prop_p2": _Check(_prop_p2, gradient=True, gates=_TF + _DF),
    "contracted_trace": _Check(_contracted_trace, gradient=True, gates=_TF),
    "remark_csc": _Check(_remark_csc, gates=()),
    "schur": _Check(_schur, frame_only=True),
    "T-C": _Check(_t_c, gates=_TF),
    "T-1": _Check(partial(_pairing_triviality, kind="yamabe"), gradient=True,
                  gates=_TF, kind="yamabe", hess_free=True),
    "T-2": _Check(partial(_pairing_triviality, kind="ricci"), gradient=True,
                  gates=_TF, kind="ricci", hess_free=True),
    "T-COR": _Check(_t_cor, gradient=True, gates=_TF, hess_free=True),
    "T-SQ": _Check(_t_sq, gradient=True, gates=_TF, hess_free=True),
    "T-N2": _Check(_t_n2, gradient=True, gates=_TF + _DF, kind="yamabe",
                   above_two=True, hess_free=True),
    "P-CSC": _Check(_p_csc, gradient=True, gates=_DF),
}

CHECK_IDS = tuple(_CATALOG)

GRADIENT_ONLY = tuple(cid for cid, row in _CATALOG.items() if row.gradient)


def _target_types(row):
    """What a row takes: schur any target with a chart; a row without gates
    also a bare field, a ScalarField if it needs a gradient; the rest a
    SolitonSpec."""
    if row.frame_only:
        return Chart, ScalarField, VectorField, SolitonSpec
    if row.gates is None:
        return (SolitonSpec, ScalarField) + (() if row.gradient else (VectorField,))
    return (SolitonSpec,)


def evaluate_theorem(check_id, target, grid=None, tol=Tolerances()):
    """Evaluate one catalog entry on a SolitonSpec; the unconditional
    identities also take a bare field (bochner only a ScalarField), schur a
    Chart."""
    row = _CATALOG.get(check_id)
    if row is None:
        raise SolitonError(
            f"unknown check id {check_id!r}; valid ids: {', '.join(CHECK_IDS)}"
        )
    types = _target_types(row)
    if not isinstance(target, types):
        names = " or ".join(t.__name__ for t in types)
        raise SolitonError(f"check {check_id!r} takes a {names}, "
                           f"not a {type(target).__name__}")
    if row.gradient and isinstance(target, SolitonSpec) and not target.is_gradient:
        raise SolitonError(
            f"check {check_id!r} needs a gradient potential, and soliton "
            f"{target.name!r} carries an explicit vector field"
        )
    ch = target if isinstance(target, Chart) else target.chart
    grid = default_grid(ch) if grid is None else grid
    fr = grid_frame(ch, grid)
    ws = fr if row.frame_only else workspace(target, grid)
    notes = []
    hypotheses = {} if row.gates is None else _soliton_gates(ws, tol, row.gates)
    if row.kind is not None:
        hypotheses["kind"] = _indicator_gate(
            target.kind == row.kind, notes, "mismatch",
            f"stated for the {row.kind} equation; spec kind is {target.kind}")
    if row.above_two:
        hypotheses["dimension_exceeds_two"] = _indicator_gate(
            target.dim > 2, notes, "failure",
            f"needs n > 2, chart dimension is {target.dim}")
    conclusions, more, integrals, info = row.conclude(ws, tol, notes)
    if row.hess_free:
        integrals["int_hess_norm2"] = ws.integral(ws.hess2)
        conclusions = {"int_hess_norm2": (integrals["int_hess_norm2"],
                                          tol.integral), **conclusions}
    return _build_report(check_id, fr, grid, tol, conclusions,
                         {**hypotheses, **more}, integrals, info, notes)


def run_check(spec, check_id, grid=None, tol=Tolerances()):
    """Uniform entry point used by the command line tool."""
    return evaluate_theorem(check_id, spec, grid, tol)


# ------------------------------------------------------ the named entry points

identity_trace_lie2 = partial(evaluate_theorem, "trace_lie2")
identity_bochner = partial(evaluate_theorem, "bochner")
identity_lemma_hessian = partial(evaluate_theorem, "lemma_hessian")
identity_div_lie = partial(evaluate_theorem, "div_lie")
identity_prop_p2 = partial(evaluate_theorem, "prop_p2")
check_contracted_trace = partial(evaluate_theorem, "contracted_trace")
remark_csc = partial(evaluate_theorem, "remark_csc")
check_schur = partial(evaluate_theorem, "schur")

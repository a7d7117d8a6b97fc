"""Least-squares search for gradient soliton data (f, lambda, mu).

The potential is a linear combination of DSL basis terms, so xi = grad f and
T = L_xi g are the same combinations of per-term arrays computed once on the
fit grid (half the full grid per axis), and U = L_xi T is bilinear in the
coefficients.  The residual is therefore quadratic in the parameters and its
Jacobian is written down exactly; no finite differences appear anywhere.
Gauss-Newton steps with Levenberg damping minimize

    J = integral of |residual|^2 over the manifold,

realized as the squared norm of a stacked vector of Cholesky-whitened
residual components scaled by sqrt(weight * volume element), so the normal
equations see the same metric-invariant objective the reports quote.  The
per-node inverse factor L^{-1} of g = L L^T is computed once per problem,
so whitening a residual or a Jacobian is two small matrix products.  A
FitProblem holds only this precomputation of the fit grid, so one problem
may run several starts; its ``history`` is that of its last fit.

The reported objective is J on the full grid of the fitted soliton, read
from ``solitons.workspace`` of that soliton; FitResult.soliton carries it,
so checks run on it afterwards reuse the same workspace.

The constant basis coefficient is frozen: f enters the equations only
through grad f, and leaving the flat direction in would make the normal
equations singular for no benefit.

A fit stops with one of four reasons.  "gradient below tolerance" (|grad J|
<= GRADIENT_TOL) and "step below tolerance" (an accepted step of norm <=
STEP_TOL) are convergence.  "no decrease at maximum damping" means no trial
lowered J before the damping passed 1e10: J sits at a floor, which is a
result and not an error.  "max iterations" ends the fit after MAX_ITERATIONS
accepted steps.  ``iterations`` counts accepted steps, so ``history`` holds
``iterations + 1`` values.
"""

from itertools import product
from typing import Optional, Tuple

import numpy as np

from .geometry import (
    gradient_vector_jets,
    lie_jet,
    lie_metric_jets,
    norm2_sym2,
    scalar_field,
    stacked_scalar_jets,
)
from .quadrature import GridSpec, default_grid, grid_nodes
from .records import record
from .solitons import (
    KINDS,
    SolitonError,
    SolitonSpec,
    full_grid_frame,
    grid_frame,
    residual_tensor,
    workspace,
)

FAMILIES = ("fourier", "poly-cos", "product")

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
LAM_CLAMP = 1e-3
DAMPING = 1e-3


class FitError(ValueError):
    pass


@record
class BasisExpansion:
    """Tensor-product trigonometric basis described by DSL term strings."""

    chart: object
    family: str
    degree: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FitError(
                f"unknown basis family {self.family!r}; known: {FAMILIES}"
            )
        if self.degree < 0:
            raise FitError("basis degree must be nonnegative")
        if self.degree > 0:
            if self.family == "fourier" and not any(self.chart.periodic):
                raise FitError("fourier basis needs a periodic coordinate")
            if self.family == "poly-cos" and all(self.chart.periodic):
                raise FitError("poly-cos basis needs a nonperiodic coordinate")

    def terms(self):
        """DSL texts, constant first; tensor products pruned by total degree."""
        factors = []
        for name, periodic in zip(self.chart.coords, self.chart.periodic):
            fs = [("1", 0)]
            for m in range(1, self.degree + 1):
                if periodic and self.family in ("fourier", "product"):
                    arg = name if m == 1 else f"{m}*{name}"
                    fs += [(f"sin({arg})", m), (f"cos({arg})", m)]
                elif not periodic and self.family in ("poly-cos", "product"):
                    power = f"cos({name})" if m == 1 else f"cos({name})^{m}"
                    fs.append((power, m))
            factors.append(fs)
        return tuple("*".join(t for t, _ in combo if t != "1") or "1"
                      for combo in product(*factors)
                      if sum(m for _, m in combo) <= self.degree)


@record
class FitInit:
    coefficients: Optional[Tuple[float, ...]] = None
    lam: float = 1.0
    mu: float = 0.0


@record
class FitResult:
    coefficients: Tuple[float, ...]
    lam: float
    mu: float
    objective: float
    objective_fit_grid: float
    iterations: int
    converged: bool
    reason: str
    lam_clamped: bool
    grid: Tuple[int, ...]
    fit_grid: Tuple[int, ...]
    soliton: SolitonSpec


def _half_grid(grid):
    return GridSpec(tuple(max(8, c // 2) for c in grid.counts))


def _clamp_lam(p):
    lam = p[-2]
    if abs(lam) < LAM_CLAMP:
        p = p.copy()
        p[-2] = LAM_CLAMP if lam >= 0 else -LAM_CLAMP
        return p, True
    return p, False


def _potential_text(coefficients, terms):
    """DSL text of sum(c_k * term_k), coefficients at 17 significant digits."""
    pieces = []
    for c, term in zip(coefficients, terms):
        coef = format(float(c), ".17g")
        pieces.append(coef if term == "1" else f"({coef})*{term}")
    return " + ".join(pieces) if pieces else "0"


class FitProblem:
    """Holds only the fit grid's precomputation, so it may run many starts.

    Set-up evaluates every basis term's jets in one pass and runs the
    gradient and the Lie derivative of the metric once, over all terms.
    """

    def __init__(self, kind, basis, grid=None):
        if kind not in KINDS:
            raise SolitonError(f"unknown soliton kind {kind!r}")
        self.chart = ch = basis.chart
        self.kind = kind
        self.basis = basis
        self.full_grid = grid if grid is not None else default_grid(ch)
        self.fit_grid = _half_grid(self.full_grid)
        self.terms = basis.terms()
        x, w = grid_nodes(ch, self.fit_grid)
        self.fr = fr = full_grid_frame(grid_frame(ch, self.fit_grid),
                                       x.shape[:-1])
        # The basis term k is the leading batch axis of xi_k, dxi_k, and
        # T_k = L_{xi_k} g and dT_k, which need d2xi_k.
        vj = gradient_vector_jets(fr, stacked_scalar_jets(
            [scalar_field(ch, text) for text in self.terms], x))
        self.T, self.dT = lie_metric_jets(fr, vj)
        self.term_vj = vj[:2]
        self.scale = np.sqrt(w * fr.sqrtg)[..., None, None]
        self.Linv = np.linalg.inv(np.linalg.cholesky(fr.g))

    def _sum_terms(self, coeffs):
        """xi, T and dT of the potential sum(c_k * term_k)."""
        c = np.asarray(coeffs, float)
        vj = [np.tensordot(c, X, 1) for X in self.term_vj]
        return vj, np.tensordot(c, self.T, 1), np.tensordot(c, self.dT, 1)

    def _whiten(self, R):
        """L^{-1} R L^{-T} * sqrt(weight * volume) for g = L L^T, per node."""
        return self.Linv @ R @ np.swapaxes(self.Linv, -1, -2) * self.scale

    def residual_stack(self, coeffs, lam, mu):
        vj, T, dT = self._sum_terms(coeffs)
        U = lie_jet(vj, [T, dT], 0)
        R = residual_tensor(self.kind, lam, mu, self.fr, U, T)
        return self._whiten(R).ravel()

    # ---------------------------------------------------- Levenberg-Marquardt

    def _jacobian(self, coeffs, lam):
        """Exact columns d residual / d (c_1.., lambda, mu) at (coeffs, lam).

        With U = L_xi T the residual is U + lambda T + (terms in mu and g),
        so the column of a free c_k is L_{xi_k} T + L_xi T_k + lambda T_k,
        that of lambda is T and that of mu is -g, for both kinds.
        """
        vj, T, dT = self._sum_terms(coeffs)
        free = [X[1:] for X in self.term_vj]
        Tk, dTk = self.T[1:], self.dT[1:]
        columns = np.concatenate([
            lie_jet(free, [T, dT], 0) + lie_jet(vj, [Tk, dTk], 0) + lam * Tk,
            T[None],
            -self.fr.g[None],
        ])
        return self._whiten(columns).reshape(len(columns), -1).T

    def fit(self, init=FitInit()):
        coeffs = init.coefficients
        if coeffs is None:
            coeffs = (0.0,) * len(self.terms)
        if len(coeffs) != len(self.terms):
            raise FitError(
                f"init has {len(coeffs)} coefficients, basis has "
                f"{len(self.terms)} terms"
            )
        # The iterate p is (c_1.., lambda, mu); c_0 stays at its start.
        c0 = float(coeffs[0])

        def split(p):
            return (c0,) + tuple(p[:-2]), float(p[-2]), float(p[-1])

        p, lam_clamped = _clamp_lam(
            np.array([*coeffs[1:], init.lam, init.mu], float))
        coeffs, lam, mu = split(p)
        y = self.residual_stack(coeffs, lam, mu)
        J = float(y @ y)
        self.history = [J]
        nu = DAMPING
        reason = "max iterations"
        converged = False

        for _ in range(MAX_ITERATIONS):
            A = self._jacobian(coeffs, lam)
            grad = A.T @ y
            if np.linalg.norm(grad) <= GRADIENT_TOL:
                reason = "gradient below tolerance"
                converged = True
                break
            H = A.T @ A
            while nu <= 1e10:
                try:
                    delta = np.linalg.solve(H + nu * np.eye(len(p)), -grad)
                except np.linalg.LinAlgError:
                    nu *= 10
                    continue
                trial, clamped = _clamp_lam(p + delta)
                at = split(trial)
                y_trial = self.residual_stack(*at)
                J_trial = float(y_trial @ y_trial)
                if J_trial <= J:
                    p, y, J, (coeffs, lam, mu) = trial, y_trial, J_trial, at
                    self.history.append(J)
                    lam_clamped = lam_clamped or clamped
                    nu = max(nu / 3.0, 1e-12)
                    break
                nu *= 10
            else:
                reason = "no decrease at maximum damping"
                break
            if np.linalg.norm(delta) <= STEP_TOL:
                reason = "step below tolerance"
                converged = True
                break

        ch = self.chart
        soliton = SolitonSpec(
            name=ch.name, chart=ch, kind=self.kind, lam=lam, mu=mu,
            potential=scalar_field(ch, _potential_text(coeffs, self.terms)),
        )
        ws = workspace(soliton, self.full_grid)
        ws.from_hessian = False  # T = L_xi g from xi's jets, as in set-up
        return FitResult(
            coefficients=tuple(float(c) for c in coeffs),
            lam=lam,
            mu=mu,
            objective=ws.integral(norm2_sym2(ws.fr, ws.residual)),
            objective_fit_grid=J,
            iterations=len(self.history) - 1,
            converged=converged,
            reason=reason,
            lam_clamped=lam_clamped,
            grid=tuple(self.full_grid.counts),
            fit_grid=tuple(self.fit_grid.counts),
            soliton=soliton,
        )

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
equations see the same metric-invariant objective the reports quote.

The reported objective is J on the full grid of the fitted soliton, read
from ``solitons.workspace`` of that soliton; FitResult.soliton carries it,
so checks run on it afterwards reuse the same workspace.

The constant basis coefficient is frozen: f enters the equations only
through grad f, and leaving the flat direction in would make the normal
equations singular for no benefit.
"""

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import (
    VectorJets,
    gradient_vector_jets,
    lie_metric_jets,
    lie_sym2,
    norm2_sym2,
    scalar_field,
    scalar_jets,
)
from .quadrature import GridSpec, default_grid, grid_nodes
from .solitons import (
    KINDS,
    SolitonError,
    SolitonSpec,
    grid_frame,
    residual_tensor,
    workspace,
)

FAMILIES = ("fourier", "poly-cos", "product")


class FitError(ValueError):
    pass


@dataclass(frozen=True)
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

    @property
    def periodic_used(self):
        return self.family in ("fourier", "product")

    @property
    def nonperiodic_used(self):
        return self.family in ("poly-cos", "product")

    def terms(self):
        """DSL texts, constant first; tensor products pruned by total degree."""
        factors = []
        for name, periodic in zip(self.chart.coords, self.chart.periodic):
            if periodic and self.periodic_used:
                fs = [("1", 0)]
                for m in range(1, self.degree + 1):
                    arg = name if m == 1 else f"{m}*{name}"
                    fs += [(f"sin({arg})", m), (f"cos({arg})", m)]
            elif not periodic and self.nonperiodic_used:
                fs = [("1", 0)]
                for m in range(1, self.degree + 1):
                    power = f"cos({name})" if m == 1 else f"cos({name})^{m}"
                    fs.append((power, m))
            else:
                fs = [("1", 0)]
            factors.append(fs)
        combos = [("", 0)]
        for fs in factors:
            grown = []
            for acc, d in combos:
                for text, m in fs:
                    if d + m > self.degree:
                        continue
                    if text == "1":
                        grown.append((acc, d))
                    elif not acc:
                        grown.append((text, d + m))
                    else:
                        grown.append((f"{acc}*{text}", d + m))
            combos = grown
        return tuple(text if text else "1" for text, _ in combos)


@dataclass(frozen=True)
class FitInit:
    coefficients: Optional[Tuple[float, ...]] = None
    lam: float = 1.0
    mu: float = 0.0


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    gradient_tol: float = 1e-10
    step_tol: float = 1e-12
    lam_clamp: float = 1e-3
    damping: float = 1e-3


@dataclass(frozen=True)
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


def _half_grid(ch, grid):
    counts = tuple(max(8, c // 2) for c in grid.counts)
    return GridSpec(counts=counts, rules=grid.rules)


def _potential_text(coefficients, terms):
    """DSL text of sum(c_k * term_k), coefficients at 17 significant digits."""
    pieces = []
    for c, term in zip(coefficients, terms):
        coef = format(float(c), ".17g")
        pieces.append(coef if term == "1" else f"({coef})*{term}")
    return " + ".join(pieces) if pieces else "0"


def _term_fields(fr, sj):
    """(xi, dxi, T, dT) of one basis term: its gradient and T = L_xi g."""
    vj = gradient_vector_jets(fr, sj)
    return (vj.xi, vj.dxi) + lie_metric_jets(fr, vj)


def _vector(xi, dxi):
    """Vector jets to first order, enough for lie_sym2."""
    return VectorJets(xi=xi, dxi=dxi, d2xi=None, d3xi=None)


# The fit grid's arrays; the basis term is the leading axis of terms.xi,
# terms.dxi, T and dT.
_Stage = namedtuple("_Stage", "fr terms T dT scale chol")


def _sum_terms(st, coeffs):
    """xi, T and dT of the potential sum(c_k * term_k)."""
    c = np.asarray(coeffs, float)
    vj = _vector(np.tensordot(c, st.terms.xi, 1), np.tensordot(c, st.terms.dxi, 1))
    return vj, np.tensordot(c, st.T, 1), np.tensordot(c, st.dT, 1)


def _whiten(st, R):
    """L^{-1} R L^{-T} * sqrt(weight * volume) for g = L L^T, per node."""
    white = np.linalg.solve(st.chol, R)
    white = np.linalg.solve(st.chol, np.swapaxes(white, -1, -2))
    return white * st.scale


class FitProblem:
    """Owns the fit grid's precomputation; one instance per fit, not shared."""

    def __init__(self, ch, kind, basis, grid=None, opts=FitOptions()):
        if kind not in KINDS:
            raise SolitonError(f"unknown soliton kind {kind!r}")
        self.chart = ch
        self.kind = kind
        self.basis = basis
        self.opts = opts
        self.full_grid = grid if grid is not None else default_grid(ch)
        self.fit_grid = _half_grid(ch, self.full_grid)
        self.terms = basis.terms()
        x, w = grid_nodes(ch, self.fit_grid)
        fr = grid_frame(ch, self.fit_grid)
        xi, dxi, T, dT = (np.stack(arrays) for arrays in zip(*(
            _term_fields(fr, scalar_jets(scalar_field(ch, text), x, order=4))
            for text in self.terms
        )))
        scale = np.sqrt(w * fr.sqrtg)[..., None, None]
        chol = np.linalg.cholesky(fr.g)
        self._st = _Stage(fr, _vector(xi, dxi), T, dT, scale, chol)

    def residual_stack(self, coeffs, lam, mu):
        st = self._st
        vj, T, dT = _sum_terms(st, coeffs)
        R = residual_tensor(self.kind, lam, mu, st.fr, lie_sym2(vj, T, dT), T)
        return _whiten(st, R).ravel()

    def objective(self, coeffs, lam, mu):
        y = self.residual_stack(coeffs, lam, mu)
        return float(y @ y)

    # ------------------------------------------------------------ optimizer

    def _pack(self, coeffs, lam, mu):
        return np.concatenate([np.asarray(coeffs[1:], float), [lam, mu]])

    def _unpack(self, p):
        coeffs = (self._frozen,) + tuple(p[:-2])
        return coeffs, float(p[-2]), float(p[-1])

    def _stack_at(self, p):
        coeffs, lam, mu = self._unpack(p)
        return self.residual_stack(coeffs, lam, mu)

    def _jacobian(self, p, y0):
        """Exact columns d residual / d (c_1.., lambda, mu) at p.

        With U = L_xi T the residual is U + lambda T + (terms in mu and g),
        so the column of a free c_k is L_{xi_k} T + L_xi T_k + lambda T_k,
        that of lambda is T and that of mu is -g, for both kinds.
        """
        coeffs, lam, _ = self._unpack(p)
        st = self._st
        vj, T, dT = _sum_terms(st, coeffs)
        free = _vector(st.terms.xi[1:], st.terms.dxi[1:])
        Tk, dTk = st.T[1:], st.dT[1:]
        columns = np.concatenate([
            lie_sym2(free, T, dT) + lie_sym2(vj, Tk, dTk) + lam * Tk,
            T[None],
            -st.fr.g[None],
        ])
        return _whiten(st, columns).reshape(len(p), -1).T

    def _clamp_lam(self, p):
        clamp = self.opts.lam_clamp
        lam = p[-2]
        if abs(lam) < clamp:
            p = p.copy()
            p[-2] = clamp if lam >= 0 else -clamp
            return p, True
        return p, False

    def fit(self, init=None):
        opts = self.opts
        init = init or FitInit()
        coeffs = init.coefficients
        if coeffs is None:
            coeffs = (0.0,) * len(self.terms)
        if len(coeffs) != len(self.terms):
            raise FitError(
                f"init has {len(coeffs)} coefficients, basis has "
                f"{len(self.terms)} terms"
            )
        self._frozen = float(coeffs[0])
        p = self._pack(coeffs, init.lam, init.mu)
        p, clamped = self._clamp_lam(p)
        lam_clamped = clamped

        y = self._stack_at(p)
        J = float(y @ y)
        self.history = [J]
        nu = opts.damping
        reason = "max iterations"
        converged = False
        iterations = 0

        for iterations in range(1, opts.max_iterations + 1):
            A = self._jacobian(p, y)
            grad = A.T @ y
            if np.linalg.norm(grad) <= opts.gradient_tol:
                reason = "gradient below tolerance"
                converged = True
                iterations -= 1
                break
            H = A.T @ A
            accepted = False
            while nu <= 1e10:
                try:
                    delta = np.linalg.solve(H + nu * np.eye(len(p)), -grad)
                except np.linalg.LinAlgError:
                    nu *= 10
                    continue
                trial, clamped = self._clamp_lam(p + delta)
                y_trial = self._stack_at(trial)
                J_trial = float(y_trial @ y_trial)
                if J_trial <= J:
                    J_before = J
                    p, y, J = trial, y_trial, J_trial
                    assert J <= J_before, "accepted step must not increase J"
                    self.history.append(J)
                    lam_clamped = lam_clamped or clamped
                    nu = max(nu / 3.0, 1e-12)
                    accepted = True
                    break
                nu *= 10
            if not accepted:
                raise FitError(
                    "damping recovery failed; normal equations are "
                    "effectively singular"
                )
            if np.linalg.norm(delta) <= opts.step_tol:
                reason = "step below tolerance"
                converged = True
                break

        coeffs, lam, mu = self._unpack(p)
        ch = self.chart
        soliton = SolitonSpec(
            name=ch.name, chart=ch, kind=self.kind, lam=lam, mu=mu,
            potential=scalar_field(ch, _potential_text(coeffs, self.terms)),
        )
        ws = workspace(soliton, self.full_grid)
        return FitResult(
            coefficients=tuple(float(c) for c in coeffs),
            lam=lam,
            mu=mu,
            objective=ws.integral(norm2_sym2(ws.fr, ws.residual)),
            objective_fit_grid=J,
            iterations=iterations,
            converged=converged,
            reason=reason,
            lam_clamped=lam_clamped,
            grid=tuple(self.full_grid.counts),
            fit_grid=tuple(self.fit_grid.counts),
            soliton=soliton,
        )


def fit_potential(ch, kind, basis, init=None, grid=None, opts=FitOptions()):
    return FitProblem(ch, kind, basis, grid=grid, opts=opts).fit(init)

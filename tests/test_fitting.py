"""Fitting: convergence on known minima, gauge invariance, gradient checks.

The closed-form anchors: on the unit sphere the residual of a constant
potential reduces to a multiple of (mu - r) g, so the constant-basis fit must
land on mu = r exactly; on the flat torus the trivial soliton is the global
minimum with J = 0.
"""

import numpy as np
import pytest

from solitonlab.fitting import (
    BasisExpansion,
    FitError,
    FitInit,
    FitOptions,
    FitProblem,
    fit_potential,
)
from solitonlab.quadrature import default_grid

from test_geometry import sphere2, torus2

SMALL = (16, 16)


def small_problem(ch=None, kind="yamabe", family="product", degree=1):
    ch = ch or sphere2()
    basis = BasisExpansion(ch, family, degree)
    return FitProblem(ch, kind, basis, grid=default_grid(ch, SMALL))


# ------------------------------------------------------------- convergence


def test_sphere_yamabe_constant_fit():
    ch = sphere2()
    basis = BasisExpansion(ch, "poly-cos", 0)
    res = fit_potential(ch, "yamabe", basis,
                        FitInit(coefficients=(0.3,), lam=1.0, mu=0.0))
    assert res.converged
    assert abs(res.mu - 2.0) <= 1e-6
    assert res.objective <= 1e-14
    assert res.coefficients == (0.3,)


def test_sphere_ricci_constant_fit():
    ch = sphere2()
    basis = BasisExpansion(ch, "poly-cos", 0)
    res = fit_potential(ch, "ricci", basis, FitInit())
    assert abs(res.mu - 1.0) <= 1e-6
    assert res.objective <= 1e-14


def test_torus_ricci_fit_from_random_start():
    ch = torus2()
    basis = BasisExpansion(ch, "fourier", 1)
    rng = np.random.default_rng(42)
    init = FitInit(
        coefficients=tuple(
            float(v) for v in rng.uniform(-0.3, 0.3, len(basis.terms()))
        ),
        lam=1.2,
        mu=0.4,
    )
    res = fit_potential(ch, "ricci", basis, init,
                        grid=default_grid(ch, (64, 64)))
    assert res.objective <= 1e-12
    assert abs(res.mu) <= 1e-6
    assert res.converged


def test_result_objective_matches_scratch_recompute():
    problem = small_problem()
    res = problem.fit(FitInit())
    again = problem.objective(res.coefficients, res.lam, res.mu)
    assert again <= 1e-9 or abs(again - res.objective_fit_grid) <= 1e-9 * again
    # res.objective is read on the full grid from the fitted soliton's
    # workspace.  A problem whose fit grid is that full grid sums the
    # whitened per-term residual there instead: two independent routes.
    ch = problem.chart
    doubled = default_grid(ch, tuple(2 * c for c in problem.full_grid.counts))
    scratch = FitProblem(ch, problem.kind, problem.basis, grid=doubled)
    assert scratch.fit_grid == problem.full_grid
    full = scratch.objective(res.coefficients, res.lam, res.mu)
    assert abs(full - res.objective) <= 1e-9 * full


def test_monotone_decrease_history():
    problem = small_problem(kind="ricci")
    problem.fit(FitInit(coefficients=None, lam=0.8, mu=0.3))
    history = problem.history
    assert len(history) >= 2
    assert all(b <= a for a, b in zip(history, history[1:]))


# ---------------------------------------------------------------- structure


def test_gauge_invariance_constant_shift():
    problem = small_problem()
    coeffs = (0.0, 0.05, -0.08, 0.03)
    assert len(problem.terms) == len(coeffs)
    j0 = problem.objective(coeffs, 1.1, 0.4)
    shifted = (coeffs[0] + 5.0,) + coeffs[1:]
    j1 = problem.objective(shifted, 1.1, 0.4)
    assert abs(j1 - j0) <= 1e-12 * max(1.0, j0)


def test_objective_gradient_against_central_differences():
    problem = small_problem(kind="ricci")
    problem._frozen = 0.0
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = np.concatenate([rng.uniform(-0.2, 0.2, len(problem.terms) - 1),
                            rng.uniform(0.5, 1.5, 1),
                            rng.uniform(-0.5, 0.5, 1)])
        y0 = problem._stack_at(p)
        grad = 2.0 * problem._jacobian(p, y0).T @ y0
        fd = np.zeros_like(grad)
        for j in range(len(p)):
            h = 1e-5 * max(1.0, abs(p[j]))
            plus, minus = p.copy(), p.copy()
            plus[j] += h
            minus[j] -= h
            yp = problem._stack_at(plus)
            ym = problem._stack_at(minus)
            fd[j] = (float(yp @ yp) - float(ym @ ym)) / (2 * h)
        scale = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / scale <= 1e-4


def test_lambda_clamp_reported():
    problem = small_problem()
    res = problem.fit(FitInit(coefficients=(0.0, 0.0, 0.0, 0.0),
                              lam=1e-9, mu=0.0))
    assert res.lam_clamped
    assert abs(res.lam) >= 1e-3


@pytest.mark.parametrize(
    "builder,kind,family,degree",
    [
        (sphere2, "yamabe", "product", 2),
        (sphere2, "ricci", "product", 2),
        (torus2, "ricci", "fourier", 1),
        (torus2, "yamabe", "fourier", 1),
    ],
)
def test_exact_jacobian_matches_central_differences(builder, kind, family,
                                                    degree):
    # The residual is quadratic in the parameters, so central differences
    # are exact up to rounding even with a large step.
    problem = small_problem(builder(), kind, family, degree)
    problem._frozen = 0.3
    rng = np.random.default_rng(5)
    p = np.concatenate([rng.uniform(-0.2, 0.2, len(problem.terms) - 1),
                        [0.9, 0.4]])
    A = problem._jacobian(p, problem._stack_at(p))
    assert A.shape == (problem._stack_at(p).size, len(p))
    for j in range(len(p)):
        h = 1e-3 * max(1.0, abs(p[j]))
        plus, minus = p.copy(), p.copy()
        plus[j] += h
        minus[j] -= h
        fd = (problem._stack_at(plus) - problem._stack_at(minus)) / (2 * h)
        assert np.linalg.norm(A[:, j] - fd) <= 1e-9 * np.linalg.norm(fd), j


# ---------------------------------------------------------------- the basis


def test_basis_terms_pinned():
    assert BasisExpansion(sphere2(), "poly-cos", 2).terms() == (
        "1", "cos(th)", "cos(th)^2",
    )
    assert BasisExpansion(sphere2(), "product", 1).terms() == (
        "1", "sin(ph)", "cos(ph)", "cos(th)",
    )
    assert BasisExpansion(torus2(), "fourier", 1).terms() == (
        "1", "sin(y)", "cos(y)", "sin(x)", "cos(x)",
    )
    assert BasisExpansion(torus2(), "fourier", 0).terms() == ("1",)


def test_basis_validation():
    with pytest.raises(FitError, match="family"):
        BasisExpansion(sphere2(), "wavelets", 1)
    with pytest.raises(FitError, match="nonnegative"):
        BasisExpansion(sphere2(), "fourier", -1)
    with pytest.raises(FitError, match="nonperiodic"):
        BasisExpansion(torus2(), "poly-cos", 1)


def test_init_length_mismatch():
    problem = small_problem()
    with pytest.raises(FitError, match="coefficients"):
        problem.fit(FitInit(coefficients=(0.0, 0.0)))

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
    FitProblem,
)
from solitonlab.manifest import bundled
from solitonlab.quadrature import default_grid
from solitonlab.solitons import Workspace, workspace

from test_geometry import generic_torus, sphere2, torus2

SMALL = (16, 16)


def small_problem(ch=None, kind="yamabe", family="product", degree=1):
    ch = ch or sphere2()
    basis = BasisExpansion(ch, family, degree)
    return FitProblem(kind, basis, grid=default_grid(ch, SMALL))


def stack_at(problem, c0, p):
    """Residual stack at the constant coefficient c0 and p = (c_1.., lam, mu)."""
    return problem.residual_stack((c0, *p[:-2]), p[-2], p[-1])


# ------------------------------------------------------------- convergence


def test_sphere_yamabe_constant_fit():
    ch = sphere2()
    basis = BasisExpansion(ch, "poly-cos", 0)
    res = FitProblem("yamabe", basis).fit(
        FitInit(coefficients=(0.3,), lam=1.0, mu=0.0))
    assert res.converged
    assert abs(res.mu - 2.0) <= 1e-6
    assert res.objective <= 1e-14
    assert res.coefficients == (0.3,)


def test_sphere_ricci_constant_fit():
    ch = sphere2()
    basis = BasisExpansion(ch, "poly-cos", 0)
    res = FitProblem("ricci", basis).fit(FitInit())
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
    res = FitProblem("ricci", basis, grid=default_grid(ch, (64, 64))).fit(init)
    assert res.objective <= 1e-12
    assert abs(res.mu) <= 1e-6
    assert res.converged


def test_result_objective_matches_scratch_recompute():
    problem = small_problem()
    res = problem.fit(FitInit())
    y = problem.residual_stack(res.coefficients, res.lam, res.mu)
    again = float(y @ y)
    assert again <= 1e-9 or abs(again - res.objective_fit_grid) <= 1e-9 * again
    # res.objective is read on the full grid from the fitted soliton's
    # workspace.  A problem whose fit grid is that full grid sums the
    # whitened per-term residual there instead: two independent routes.
    ch = problem.chart
    doubled = default_grid(ch, tuple(2 * c for c in problem.full_grid.counts))
    scratch = FitProblem(problem.kind, problem.basis, grid=doubled)
    assert scratch.fit_grid == problem.full_grid
    y = scratch.residual_stack(res.coefficients, res.lam, res.mu)
    full = float(y @ y)
    assert abs(full - res.objective) <= 1e-9 * full


def test_monotone_decrease_history():
    problem = small_problem(kind="ricci")
    problem.fit(FitInit(coefficients=None, lam=0.8, mu=0.3))
    history = problem.history
    assert len(history) >= 2
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_history_holds_the_start_and_every_accepted_step():
    # The torus fit stops on the gradient test.  No gradient Yamabe soliton
    # exists on the warped sphere, so that fit stalls at a nonzero floor
    # where no damped step lowers J.
    torus = torus2()
    problem = FitProblem("ricci", BasisExpansion(torus, "fourier", 1),
                         grid=default_grid(torus, SMALL))
    res = problem.fit(FitInit(coefficients=(0.0, 0.1, -0.2, 0.05, 0.1)))
    assert res.converged and res.reason == "gradient below tolerance"
    assert len(problem.history) == res.iterations + 1

    ch = bundled("warped_sphere").chart
    problem = FitProblem("yamabe", BasisExpansion(ch, "poly-cos", 2),
                         grid=default_grid(ch, SMALL))
    res = problem.fit(FitInit(coefficients=(0.0, 0.1, 0.1), lam=1.0, mu=2.0))
    assert not res.converged
    assert res.reason == "no decrease at maximum damping"
    assert len(problem.history) == res.iterations + 1
    assert res.objective > 0.3


def test_fit_leaves_no_state_on_the_problem():
    # A problem holds only its grid's precomputation: a fit from a start
    # gives what a fresh problem gives from that start, whatever ran before.
    problem = small_problem(torus2(), "ricci", "fourier", 1)
    coeffs = (0.2, 0.05, -0.08, 0.03, 0.01)
    y = problem.residual_stack(coeffs, 1.1, 0.4)
    A = problem._jacobian(coeffs, 1.1)
    assert A.shape == (y.size, len(coeffs) + 1)
    starts = [FitInit(coefficients=(0.3, 0.05, -0.1, 0.02, 0.0), lam=0.8,
                      mu=0.3),
              FitInit(coefficients=(-1.0, 0.1, 0.0, -0.05, 0.1), lam=1.2,
                      mu=-0.2)]
    for init in starts:
        res = problem.fit(init)
        fresh = small_problem(torus2(), "ricci", "fourier", 1)
        want = fresh.fit(init)
        assert res.coefficients == want.coefficients
        assert res.coefficients[0] == init.coefficients[0]
        assert (res.lam, res.mu) == (want.lam, want.mu)
        assert res.objective == want.objective
        assert res.iterations == want.iterations
        assert res.reason == want.reason
        assert problem.history == fresh.history
    assert np.array_equal(problem.residual_stack(coeffs, 1.1, 0.4), y)
    assert np.array_equal(problem._jacobian(coeffs, 1.1), A)


def test_fit_result_workspace_keeps_the_vector_route():
    # The fitted soliton's workspace takes T = L_xi g and d2T from xi's jets
    # to d3xi, as the fit's own set-up does; a fresh workspace of the same
    # potential takes them from Hess f.  Both give the same T, dT and dU.
    problem = small_problem(torus2(), "ricci", "fourier", 1)
    res = problem.fit(FitInit(coefficients=(0.3, 0.05, -0.1, 0.02, 0.0),
                              lam=0.8, mu=0.3))
    ws = workspace(res.soliton, problem.full_grid)
    assert not ws.from_hessian and "Tjets" in vars(ws)
    fresh = Workspace(res.soliton, problem.full_grid)
    assert fresh.from_hessian
    assert len(ws.vj) == 4 and len(fresh.vj) == 3
    for name in ("T", "dT", "dU"):
        got, want = getattr(ws, name), getattr(fresh, name)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


# ---------------------------------------------------------------- structure


def test_gauge_invariance_constant_shift():
    problem = small_problem()
    coeffs = (0.0, 0.05, -0.08, 0.03)
    assert len(problem.terms) == len(coeffs)
    y0 = problem.residual_stack(coeffs, 1.1, 0.4)
    j0 = float(y0 @ y0)
    shifted = (coeffs[0] + 5.0,) + coeffs[1:]
    y1 = problem.residual_stack(shifted, 1.1, 0.4)
    j1 = float(y1 @ y1)
    assert abs(j1 - j0) <= 1e-12 * max(1.0, j0)


def test_objective_gradient_against_central_differences():
    problem = small_problem(kind="ricci")
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = np.concatenate([rng.uniform(-0.2, 0.2, len(problem.terms) - 1),
                            rng.uniform(0.5, 1.5, 1),
                            rng.uniform(-0.5, 0.5, 1)])
        y0 = stack_at(problem, 0.0, p)
        grad = 2.0 * problem._jacobian((0.0, *p[:-2]), p[-2]).T @ y0
        fd = np.zeros_like(grad)
        for j in range(len(p)):
            h = 1e-5 * max(1.0, abs(p[j]))
            plus, minus = p.copy(), p.copy()
            plus[j] += h
            minus[j] -= h
            yp = stack_at(problem, 0.0, plus)
            ym = stack_at(problem, 0.0, minus)
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
        (generic_torus, "ricci", "fourier", 1),
    ],
)
def test_exact_jacobian_matches_central_differences(builder, kind, family,
                                                    degree):
    # The residual is quadratic in the parameters, so central differences
    # are exact up to rounding even with a large step.
    problem = small_problem(builder(), kind, family, degree)
    rng = np.random.default_rng(5)
    p = np.concatenate([rng.uniform(-0.2, 0.2, len(problem.terms) - 1),
                        [0.9, 0.4]])
    A = problem._jacobian((0.3, *p[:-2]), p[-2])
    assert A.shape == (stack_at(problem, 0.3, p).size, len(p))
    for j in range(len(p)):
        h = 1e-3 * max(1.0, abs(p[j]))
        plus, minus = p.copy(), p.copy()
        plus[j] += h
        minus[j] -= h
        fd = (stack_at(problem, 0.3, plus)
              - stack_at(problem, 0.3, minus)) / (2 * h)
        assert np.linalg.norm(A[:, j] - fd) <= 1e-9 * np.linalg.norm(fd), j


def test_whiten_matches_cholesky_solves_on_off_diagonal_metric():
    # generic_torus's metric has an off-diagonal entry depending on both
    # coordinates, so a transposed factor, L^-T R L^-1, would show here; on
    # the diagonal metrics of sphere2 and torus2 it gives the same values.
    problem = small_problem(generic_torus(), "ricci", "fourier", 1)
    rng = np.random.default_rng(3)
    R = rng.standard_normal((3,) + problem.fr.g.shape)
    R = R + np.swapaxes(R, -1, -2)
    L = np.linalg.cholesky(problem.fr.g)
    left = np.linalg.solve(L, R)
    expected = np.swapaxes(
        np.linalg.solve(L, np.swapaxes(left, -1, -2)), -1, -2) * problem.scale
    got = problem._whiten(R)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


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

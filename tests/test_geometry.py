"""Frame and operator tests against closed forms and finite differences.

Oracles, in decreasing order of authority:

* hand-derived closed forms on the round sphere, the Hopf-coordinate round
  3-sphere, a flat annulus in polar coordinates, a product metric and a
  warped sphere whose scalar curvature is genuinely nonconstant;
* finite differences of independently evaluated frames at shifted points,
  which validate every stored derivative recipe against the value recipe;
* structural identities (contracted Bianchi, derivative of g g^{-1} = 1)
  on randomized metrics, which exercise the whole pipeline at once.
"""

import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solitonlab.geometry import (
    GeometryError,
    _node_label,
    chart,
    contract,
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
    pair,
    raise_covec,
    ric_vv,
    scalar_field,
    scalar_jets,
    stacked_scalar_jets,
    trace_g,
    trace_g_jet,
    vector_field,
    vector_jets,
)
from solitonlab.manifest import bundled
from solitonlab.quadrature import default_grid, grid_nodes
from solitonlab.solitons import full_grid_frame

TAU = 2 * math.pi


def sphere2(radius=None):
    gtt = "1" if radius is None else f"{radius}^2"
    gpp = "sin(th)^2" if radius is None else f"{radius}^2*sin(th)^2"
    return chart(
        "sphere2", ("th", "ph"), (0.0, 0.0), (math.pi, TAU), (False, True),
        [[gtt, "0"], ["0", gpp]], (64, 128),
    )


def sphere3_hopf():
    return chart(
        "sphere3", ("eta", "x1", "x2"), (0.0, 0.0, 0.0),
        (math.pi / 2, TAU, TAU), (False, True, True),
        [["1", "0", "0"], ["0", "cos(eta)^2", "0"], ["0", "0", "sin(eta)^2"]],
        (20, 24, 24),
    )


def annulus():
    return chart(
        "annulus", ("rho", "phi"), (1.0, 0.0), (2.0, TAU), (False, True),
        [["1", "0"], ["0", "rho^2"]], (16, 32),
    )


def product_s2_s1(b=0.75):
    return chart(
        "s2xs1", ("th", "ph", "ps"), (0.0, 0.0, 0.0), (math.pi, TAU, TAU),
        (False, True, True),
        [["1", "0", "0"], ["0", "sin(th)^2", "0"], ["0", "0", f"{b}^2"]],
        (20, 32, 24),
    )


def warped_sphere():
    return chart(
        "warped", ("th", "ph"), (0.0, 0.0), (math.pi, TAU), (False, True),
        [["1", "0"], ["0", "(sin(th)*(1 + 0.15*sin(th)^2))^2"]], (64, 128),
    )


def torus2():
    return chart(
        "torus2", ("x", "y"), (0.0, 0.0), (TAU, TAU), (True, True),
        [["1", "0"], ["0", "1"]], (128, 128),
    )


def torus3():
    return chart(
        "torus3", ("x", "y", "z"), (0.0, 0.0, 0.0), (TAU, TAU, TAU),
        (True, True, True),
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], (24, 24, 24),
    )


def mesh(ch, counts, pad=0.2):
    axes = []
    for i, m in enumerate(counts):
        lo, hi = ch.lo[i], ch.hi[i]
        if ch.periodic[i]:
            axes.append(np.linspace(lo, hi, m, endpoint=False))
        else:
            axes.append(np.linspace(lo + pad, hi - pad, m))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def max_abs(a):
    return float(np.max(np.abs(a)))


# ------------------------------------------------------------- closed forms


def test_sphere_christoffels():
    ch = sphere2()
    x = mesh(ch, (9, 11))
    fr = frame(ch, x)
    th = x[..., 0]
    want = np.zeros(x.shape[:-1] + (2, 2, 2))
    want[..., 0, 1, 1] = -np.sin(th) * np.cos(th)
    want[..., 1, 0, 1] = want[..., 1, 1, 0] = np.cos(th) / np.sin(th)
    assert max_abs(np.broadcast_to(fr.Gamma, want.shape) - want) < 1e-12


def test_sphere_curvature():
    ch = sphere2()
    x = mesh(ch, (9, 11))
    fr = frame(ch, x)
    assert max_abs(fr.Ric - fr.g) < 1e-11
    assert max_abs(fr.r - 2.0) < 1e-11
    assert max_abs(fr.dRic - fr.dg) < 1e-10
    assert max_abs(fr.dr) < 1e-10
    assert max_abs(fr.sqrtg - np.sin(x[..., 0])) < 1e-13


def test_sphere_radius_two_scaling():
    fr = frame(sphere2(radius=2), mesh(sphere2(), (7, 9)))
    assert max_abs(fr.r - 0.5) < 1e-12
    assert max_abs(fr.Ric[..., 0, 0] - 1.0) < 1e-12


def test_hopf_three_sphere():
    ch = sphere3_hopf()
    x = mesh(ch, (7, 6, 6))
    fr = frame(ch, x)
    eta = x[..., 0]
    c, s = np.cos(eta), np.sin(eta)
    want = np.zeros(x.shape[:-1] + (3, 3, 3))
    want[..., 0, 1, 1] = c * s
    want[..., 0, 2, 2] = -s * c
    want[..., 1, 0, 1] = want[..., 1, 1, 0] = -s / c
    want[..., 2, 0, 2] = want[..., 2, 2, 0] = c / s
    assert max_abs(np.broadcast_to(fr.Gamma, want.shape) - want) < 1e-11
    assert max_abs(fr.Ric - 2.0 * fr.g) < 1e-10
    assert max_abs(fr.r - 6.0) < 1e-10
    assert max_abs(fr.sqrtg - c * s) < 1e-13


def test_flat_annulus_polar():
    ch = annulus()
    x = mesh(ch, (8, 10), pad=0.1)
    fr = frame(ch, x)
    rho = x[..., 0]
    assert max_abs(fr.Gamma[..., 0, 1, 1] + rho) < 1e-13
    assert max_abs(fr.Gamma[..., 1, 0, 1] - 1.0 / rho) < 1e-13
    assert max_abs(fr.Ric) < 1e-12
    assert max_abs(fr.r) < 1e-12
    assert max_abs(fr.dRic) < 1e-11


def test_product_metric_block_ricci():
    ch = product_s2_s1()
    x = mesh(ch, (7, 6, 5))
    fr = frame(ch, x)
    th = x[..., 0]
    want = np.zeros(x.shape[:-1] + (3, 3))
    want[..., 0, 0] = 1.0
    want[..., 1, 1] = np.sin(th) ** 2
    assert max_abs(np.broadcast_to(fr.Ric, want.shape) - want) < 1e-11
    assert max_abs(fr.r - 2.0) < 1e-11


def test_warped_sphere_scalar_curvature():
    ch = warped_sphere()
    x = mesh(ch, (13, 5))
    fr = frame(ch, x)
    s, c = np.sin(x[..., 0]), np.cos(x[..., 0])
    w = 1.0 + 0.15 * s * s
    want_r = 2.0 * (0.1 + 1.35 * s * s) / w
    want_dr = 5.34 * s * c / w**2
    assert max_abs(fr.r - want_r) < 1e-10
    assert max_abs(fr.dr[..., 0] - want_dr) < 1e-9
    assert max_abs(fr.dr[..., 1]) < 1e-12
    # The range is genuinely nonconstant, about 0.2 at the poles and 2.52 at
    # the equator, which is what makes this chart useful.
    assert want_r.min() < 0.5 < 2.0 < want_r.max()


def test_contracted_bianchi_on_warped_sphere():
    ch = warped_sphere()
    fr = frame(ch, mesh(ch, (11, 7)))
    residual = div_sym2(fr, fr.Ric, fr.dRic) - 0.5 * fr.dr
    assert max_abs(residual) < 1e-10


# ------------------------------------------------- finite-difference checks


def central(ch, x, a, h, take):
    e = np.zeros(ch.dim)
    e[a] = h
    return (take(frame(ch, x + e)) - take(frame(ch, x - e))) / (2 * h)


@pytest.mark.parametrize("builder", [warped_sphere, sphere3_hopf, annulus])
def test_stored_derivatives_match_fd(builder):
    ch = builder()
    rng = np.random.default_rng(42)
    lo = np.array(ch.lo) + 0.3
    hi = np.array(ch.hi) - 0.3
    x = rng.uniform(lo, hi, size=(5, ch.dim))
    fr = frame(ch, x)
    h = 1e-5
    for a in range(ch.dim):
        for take, stored in [
            (lambda f: f.ginv, fr.dginv),
            (lambda f: f.dginv, fr.d2ginv),
            (lambda f: f.Gamma, fr.dGamma),
            (lambda f: f.dGamma, fr.d2Gamma),
            (lambda f: f.Ric, fr.dRic),
            (lambda f: f.r, fr.dr),
        ]:
            fd = central(ch, x, a, h, take)
            exact = np.take(stored, a, axis=1)
            scale = 1.0 + max_abs(exact)
            assert max_abs(fd - exact) < 2e-6 * scale


def generic_torus():
    # Off-diagonal and dependent on both coordinates, so no index of the
    # metric derivatives is distinguished by symmetry.
    return chart(
        "generic_torus", ("x", "y"), (0.0, 0.0), (TAU, TAU), (True, True),
        [["1.5 + 0.2*sin(x) + 0.1*cos(y)", "0.09*sin(x)*cos(y)"],
         ["0.09*sin(x)*cos(y)", "1.7 + 0.25*sin(x + y)"]],
        (16, 16),
    )


@pytest.mark.parametrize(
    "builder,f_text",
    [
        (warped_sphere, "cos(th) + 0.4*sin(th)*cos(ph) + 0.3*sin(th)^2*sin(2*ph)"),
        (sphere3_hopf,
         "cos(eta)*sin(x1) + 0.5*sin(2*eta)*cos(x2) + 0.3*cos(x1 - x2)"),
        (annulus, "rho^3*cos(phi) + 0.5*rho*sin(2*phi)"),
        (generic_torus, "sin(x)*cos(y) + 0.4*cos(2*x + y)"),
    ],
)
def test_gradient_d3xi_matches_fd(builder, f_text):
    # The potential depends on every coordinate, so every product-rule term
    # of d_i d_j d_k g^{ab} d_b f contributes to d3xi.
    ch = builder()
    f = scalar_field(ch, f_text)
    rng = np.random.default_rng(42)
    lo = np.array(ch.lo) + 0.3
    hi = np.array(ch.hi) - 0.3
    x = rng.uniform(lo, hi, size=(5, ch.dim))

    def grad_jets(y):
        return gradient_vector_jets(frame(ch, y), scalar_jets(f, y, order=4))

    exact = grad_jets(x)[3]
    scale = 1.0 + max_abs(exact)
    h = 1e-5
    for a in range(ch.dim):
        e = np.zeros(ch.dim)
        e[a] = h
        fd = (grad_jets(x + e)[2] - grad_jets(x - e)[2]) / (2 * h)
        assert max_abs(fd - np.take(exact, a, axis=1)) < 2e-6 * scale


def grad_laplacian(fr, sj):
    """d_a lap f, the derivative of the g-trace of Hess f."""
    return trace_g_jet(fr, hessian(fr, sj), hessian(fr, sj, k=1))


def lie2_metric(fr, vj):
    """(U, dU) for U = L_xi L_xi g, assembled here from the Lie-derivative
    layers, independently of the workspace that the checks read."""
    T, dT = lie_metric_jets(fr, vj)
    d2T = lie_jet(vj, [fr.g, fr.dg, fr.d2g, fr.d3g], 2)
    return lie_jet(vj, [T, dT], 0), lie_jet(vj, [T, dT, d2T], 1)


def test_lie2_jet_matches_fd():
    ch = warped_sphere()
    field = vector_field(ch, ("sin(th)*cos(ph)", "cos(th)"))
    rng = np.random.default_rng(7)
    x = rng.uniform((0.4, 0.0), (math.pi - 0.4, TAU), size=(4, 2))
    fr = frame(ch, x)
    U, dU = lie2_metric(fr, vector_jets(field, x))
    h = 1e-5
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        Up = lie2_metric(frame(ch, x + e), vector_jets(field, x + e))[0]
        Um = lie2_metric(frame(ch, x - e), vector_jets(field, x - e))[0]
        fd = (Up - Um) / (2 * h)
        assert max_abs(fd - dU[..., a, :, :]) < 2e-6 * (1.0 + max_abs(dU))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_lie_jet_rejects_a_short_list(k):
    # leibniz would leave out the terms a short list cannot supply, so
    # lie_jet refuses one instead of returning a wrong derivative.
    ch = warped_sphere()
    x = mesh(ch, (3, 3))
    fr = frame(ch, x)
    vj = vector_jets(vector_field(ch, ("sin(th)*cos(ph)", "cos(th)")), x)
    Gs = [fr.g, fr.dg, fr.d2g, fr.d3g]
    lie_jet(vj[:k + 2], Gs[:k + 2], k)
    for short_vj, short_Gs in ((vj[:k + 1], Gs), (vj, Gs[:k + 1])):
        with pytest.raises(ValueError, match=f"needs {k + 2} jets of xi"):
            lie_jet(short_vj, short_Gs, k)


def test_hessian_jet_matches_fd():
    ch = warped_sphere()
    f = scalar_field(ch, "cos(th) + 0.3*sin(th)*cos(ph)")
    rng = np.random.default_rng(3)
    x = rng.uniform((0.4, 0.0), (math.pi - 0.4, TAU), size=(4, 2))
    fr = frame(ch, x)
    sj = scalar_jets(f, x)
    dH = hessian(fr, sj, k=1)
    dL = grad_laplacian(fr, sj)
    h = 1e-5
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        Hp = hessian(frame(ch, x + e), scalar_jets(f, x + e))
        Hm = hessian(frame(ch, x - e), scalar_jets(f, x - e))
        assert max_abs((Hp - Hm) / (2 * h) - dH[..., a, :, :]) < 2e-6
        Lp = laplacian(frame(ch, x + e), scalar_jets(f, x + e))
        Lm = laplacian(frame(ch, x - e), scalar_jets(f, x - e))
        assert max_abs((Lp - Lm) / (2 * h) - dL[..., a]) < 2e-6


def test_hessian_second_jet_matches_fd():
    # d2Gamma enters through d2Gamma df, so the potential depends on both
    # coordinates of a chart whose Christoffels vary.
    ch = warped_sphere()
    f = scalar_field(ch, "cos(th) + 0.3*sin(th)*cos(ph)")
    rng = np.random.default_rng(5)
    x = rng.uniform((0.4, 0.0), (math.pi - 0.4, TAU), size=(4, 2))
    d2H = hessian(frame(ch, x), scalar_jets(f, x, order=4), k=2)
    h = 1e-5
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        dHp = hessian(frame(ch, x + e), scalar_jets(f, x + e), k=1)
        dHm = hessian(frame(ch, x - e), scalar_jets(f, x - e), k=1)
        fd = (dHp - dHm) / (2 * h)
        assert max_abs(fd - d2H[..., a, :, :, :]) < 2e-6 * (1.0 + max_abs(d2H))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_hessian_rejects_a_short_list(k):
    # As for lie_jet, leibniz would leave out the terms a short list of f's
    # jets cannot supply.
    ch = warped_sphere()
    x = mesh(ch, (3, 3))
    fr = frame(ch, x)
    sj = scalar_jets(scalar_field(ch, "cos(th)"), x, order=4)
    want = hessian(full_grid_frame(fr, (3, 3)), [
        np.broadcast_to(a, (3, 3) + a.shape[2:]) for a in sj[:k + 3]], k)
    assert want.shape == (3, 3) + (2,) * (k + 2)
    assert np.array_equal(
        np.broadcast_to(hessian(fr, sj[:k + 3], k), want.shape), want)
    with pytest.raises(ValueError, match=fr"needs d\^{k + 2} f"):
        hessian(fr, sj[:k + 2], k)


# ------------------------------------------------- the product rule helper
# The jet oracle differentiates a product expression as a whole; leibniz
# assembles the same derivatives from the factors' own jets.

LEIBNIZ_FACTORS = ("sin(eta)*cos(x1)", "exp(0.3*cos(x2) + eta)",
                   "cos(eta - 2*x2)*sin(x1)", "1 + eta*sin(x1 + x2)")


def scattered(ch):
    """A 4 x 5 batch of points inside the chart, off every grid symmetry."""
    rng = np.random.default_rng(11)
    return rng.uniform(np.array(ch.lo) + 0.2, np.array(ch.hi) - 0.2,
                       size=(4, 5, ch.dim))


@pytest.mark.parametrize("count", [2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_leibniz_matches_jets_of_scalar_products(count, k):
    ch = sphere3_hopf()
    x = scattered(ch)
    texts = LEIBNIZ_FACTORS[:count]
    factors = [scalar_jets(scalar_field(ch, t), x) for t in texts]
    product = scalar_field(ch, "*".join(f"({t})" for t in texts))
    want = scalar_jets(product, x)[k]
    got = leibniz(",".join(["..."] * count) + "->...", *factors, k=k)
    assert got.shape == want.shape
    assert max_abs(got - want) < 1e-12 * (1.0 + max_abs(want))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_leibniz_matches_jets_of_matrix_times_vector(k):
    # M is not symmetric, so a swapped matrix index shows up.
    ch = sphere3_hopf()
    x = scattered(ch)
    rows = (("cos(eta)", "sin(x1)", "eta*x2"),
            ("exp(sin(x2))", "1", "cos(x1 + eta)"),
            ("x1", "sin(eta)*cos(x2)", "2"))
    vec = ("sin(x1)*cos(x2)", "eta^2", "cos(eta + x1)")
    M = [np.stack(arrays, axis=-2) for arrays in zip(*(
        vector_jets(vector_field(ch, row), x) for row in rows))]
    v = vector_jets(vector_field(ch, vec), x)
    got = leibniz("...ab,...b->...a", M, v, k=k)
    for a, row in enumerate(rows):
        text = " + ".join(f"({m})*({w})" for m, w in zip(row, vec))
        want = scalar_jets(scalar_field(ch, text), x)[k]
        assert max_abs(got[..., a] - want) < 1e-12 * (1.0 + max_abs(want))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_leibniz_holds_a_one_element_list_fixed(k):
    # Holding B fixed drops exactly the terms that differentiate it: what is
    # left is the derivative of A C times B.
    ch = sphere3_hopf()
    x = scattered(ch)
    A, B, C = (scalar_jets(scalar_field(ch, t), x) for t in LEIBNIZ_FACTORS[:3])
    got = leibniz("...,...,...->...", A, [B[0]], C, k=k)
    want = leibniz("...,...->...", A, C, k=k) * B[0][(...,) + (None,) * k]
    assert max_abs(got - want) < 1e-13 * (1.0 + max_abs(want))
    full = leibniz("...,...,...->...", A, B, C, k=k)
    assert (k == 0) == (max_abs(full - got) < 1e-3)


# ------------------------------------------------------------ field algebra


def test_hessian_of_first_harmonic_on_sphere():
    ch = sphere2()
    x = mesh(ch, (9, 11))
    fr = frame(ch, x)
    sj = scalar_jets(scalar_field(ch, "cos(th)"), x)
    H = hessian(fr, sj)
    assert max_abs(H + np.cos(x[..., 0])[..., None, None] * fr.g) < 1e-12
    assert max_abs(laplacian(fr, sj) + 2 * np.cos(x[..., 0])) < 1e-12
    dL = grad_laplacian(fr, sj)
    assert max_abs(dL[..., 0] - 2 * np.sin(x[..., 0])) < 1e-12
    assert max_abs(dL[..., 1]) < 1e-13


def test_lie_metric_closed_forms():
    ch = sphere2()
    x = mesh(ch, (9, 11))
    fr = frame(ch, x)
    killing = vector_jets(vector_field(ch, ("0", "1")), x)
    assert max_abs(lie_metric_jets(fr, killing)[0]) < 1e-13
    radial = vector_jets(vector_field(ch, ("1", "0")), x)
    T, dT = lie_metric_jets(fr, radial)
    d2T = lie_jet(radial, [fr.g, fr.dg, fr.d2g, fr.d3g], 2)
    th = x[..., 0]
    assert max_abs(T[..., 0, 0]) < 1e-13
    assert max_abs(T[..., 0, 1]) < 1e-13
    assert max_abs(T[..., 1, 1] - np.sin(2 * th)) < 1e-12
    assert max_abs(dT[..., 0, 1, 1] - 2 * np.cos(2 * th)) < 1e-12
    assert max_abs(d2T[..., 0, 0, 1, 1] + 4 * np.sin(2 * th)) < 1e-11
    U, dU = lie2_metric(fr, radial)
    assert max_abs(U[..., 1, 1] - 2 * np.cos(2 * th)) < 1e-12
    assert max_abs(dU[..., 0, 1, 1] + 4 * np.sin(2 * th)) < 1e-11


def test_cov_accel_on_sphere():
    ch = sphere2()
    x = mesh(ch, (9, 11))
    fr = frame(ch, x)
    vj = vector_jets(vector_field(ch, ("0", "1")), x)
    v, dv = cov_accel(fr, vj)
    th = x[..., 0]
    assert max_abs(v[..., 0] + np.sin(th) * np.cos(th)) < 1e-13
    assert max_abs(v[..., 1]) < 1e-13
    assert max_abs(dv[..., 0, 0] + np.cos(2 * th)) < 1e-12


def test_divergence_dual_route():
    ch = warped_sphere()
    x = mesh(ch, (9, 7))
    fr = frame(ch, x)
    vj = vector_jets(
        vector_field(ch, ("sin(th)*(1 + 0.5*cos(ph))", "cos(th)*sin(ph)")), x
    )
    got = div_vector(fr, vj[0], vj[1])
    # Independent route: div = (d_a(sqrtg xi^a)) / sqrtg with the sqrtg
    # derivative taken from the metric by Jacobi's formula.
    dsqrtg = 0.5 * fr.sqrtg[..., None] * np.einsum(
        "...ij,...aij->...a", fr.ginv, fr.dg
    )
    want = (
        np.einsum("...a,...a->...", dsqrtg, vj[0])
        + fr.sqrtg * np.einsum("...aa->...", vj[1])
    ) / fr.sqrtg
    assert max_abs(got - want) < 1e-11
    # Closed form on the round sphere for the radial field.
    ch2 = sphere2()
    x2 = mesh(ch2, (9, 5))
    fr2 = frame(ch2, x2)
    vj2 = vector_jets(vector_field(ch2, ("1", "0")), x2)
    assert max_abs(
        div_vector(fr2, vj2[0], vj2[1]) - np.cos(x2[..., 0]) / np.sin(x2[..., 0])
    ) < 1e-12


def test_killing_field_covariant_derivative_norm():
    ch = sphere2()
    x = mesh(ch, (9, 11))
    fr = frame(ch, x)
    vj = vector_jets(vector_field(ch, ("0", "1")), x)
    assert max_abs(nabla_vec_norm2(fr, vj) - 2 * np.cos(x[..., 0]) ** 2) < 1e-12


@pytest.mark.parametrize(
    "builder,f_text,grad_texts",
    [
        (sphere2, "cos(th)", ("-sin(th)", "0")),
        (warped_sphere, "cos(th)", ("-sin(th)", "0")),
        (sphere3_hopf, "cos(2*eta)", ("-2*sin(2*eta)", "0", "0")),
    ],
)
def test_gradient_vector_jets_dual_route(builder, f_text, grad_texts):
    # Route one computes grad f jets from order-4 scalar jets and inverse
    # metric derivatives; route two parses the hand-computed components.
    ch = builder()
    x = mesh(ch, (7,) * ch.dim, pad=0.3)
    fr = frame(ch, x)
    sj = scalar_jets(scalar_field(ch, f_text), x, order=4)
    got = gradient_vector_jets(fr, sj)
    want = vector_jets(vector_field(ch, grad_texts), x)
    assert len(got) == len(want) == 4
    assert max_abs(got[0] - want[0]) < 1e-11
    assert max_abs(got[1] - want[1]) < 1e-11
    assert max_abs(got[2] - want[2]) < 1e-10
    assert max_abs(got[3] - want[3]) < 1e-9


BASE_CHARTS = ("sphere2", "warped_sphere", "product_s2_s1", "sphere3", "torus2",
               "torus3")
FRAME_FIELDS = ("g", "ginv", "sqrtg", "dg", "d2g", "d3g", "dginv", "d2ginv",
                "Gamma", "dGamma", "d2Gamma", "Ric", "dRic", "r", "dr")


@pytest.mark.parametrize("name", BASE_CHARTS + ("generic_torus",))
def test_mesh_evaluation_matches_point_list(name):
    # On a mesh each expression runs only over the axes it depends on; the
    # same points as a flat list take every coordinate on all points.  Both
    # must give the same bits on every node.
    ch = generic_torus() if name == "generic_torus" else bundled(name).chart
    x, _ = grid_nodes(ch, default_grid(ch))
    pts = x.reshape(-1, ch.dim)
    c = ch.coords
    f = scalar_field(ch, f"cos({c[0]})*sin({c[-1]}) + 0.3*sin({c[0]} + {c[1]})^2")
    v = vector_field(ch, [f"sin({c[0]})*cos({c[k]}) + 0.2*{c[k]}" for k in range(ch.dim)])
    on_mesh = frame(ch, x)
    on_points = frame(ch, pts)
    pairs = [(getattr(on_mesh, k), getattr(on_points, k)) for k in FRAME_FIELDS]
    for order in (3, 4):
        pairs += zip(scalar_jets(f, x, order=order),
                     scalar_jets(f, pts, order=order))
    pairs += zip(vector_jets(v, x), vector_jets(v, pts))
    nodes = (len(pts),)
    for got, want in pairs:
        assert got.ndim == want.ndim + ch.dim - 1
        full = np.broadcast_to(got, x.shape[:-1] + want.shape[1:])
        assert np.array_equal(full.reshape(nodes + want.shape[1:]),
                              np.broadcast_to(want, nodes + want.shape[1:]))
    for key in FRAME_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(on_mesh, key)[...] = 0.0


@pytest.mark.parametrize("name, as_list", [
    ("sphere2", False), ("torus2", False), ("sphere3", False), ("sphere3", True)])
def test_producers_return_the_entries_own_batch(name, as_list):
    # Each producer's batch has x's number of axes, of size 1 along each
    # axis no entry reads: the round metrics read their first coordinate,
    # the flat torus's none, f its last and the constant vector field none.
    # A point list reads every coordinate on every point.  A non-finite
    # value on that batch is named at the first node of the full grid where
    # it holds.
    ch = bundled(name).chart
    x, _ = grid_nodes(ch, default_grid(ch))
    if as_list:
        x = x.reshape(-1, ch.dim)
    nb = x.ndim - 1

    def own(*axes):
        if as_list:
            return (len(x),) if axes else (1,)
        return tuple(m if i in axes else 1 for i, m in enumerate(x.shape[:-1]))

    f = scalar_field(ch, f"sin({ch.coords[-1]})")
    arrays = {"frame": ([getattr(frame(ch, x), k) for k in FRAME_FIELDS],
                        own() if name == "torus2" else own(0)),
              "scalar_jets": (scalar_jets(f, x, order=4), own(ch.dim - 1)),
              "vector_jets": (vector_jets(vector_field(
                  ch, ("1",) + ("0",) * (ch.dim - 1)), x), own()),
              "stacked_scalar_jets": (stacked_scalar_jets(
                  [f, scalar_field(ch, "1")], x), (2,) + own(ch.dim - 1))}
    for producer, (got, batch) in arrays.items():
        for a in got:
            assert a.shape[:len(batch)] == batch, producer
    r = np.array(frame(ch, x).r)
    r[(-1,) * nb] = np.nan
    full = np.broadcast_to(r, x.shape[:-1])
    assert (_node_label(ch, x, int(np.argmin(np.isfinite(r))), r.shape)
            == _node_label(ch, x, int(np.argmin(np.isfinite(full))), full.shape))


def seeded_potential(ch, seed=4):
    """A random combination of sin(a)*cos(b) over every ordered pair of the
    chart's coordinates, so that its jets vary along every axis."""
    rng = np.random.default_rng(seed)
    return scalar_field(ch, " + ".join(
        f"({c:.3f})*sin({a})*cos({b})" for c, (a, b) in
        zip(rng.uniform(-1.0, 1.0, ch.dim**2),
            itertools.product(ch.coords, repeat=2))))


@pytest.mark.parametrize("potential", ["seeded", "constant"])
@pytest.mark.parametrize("name", BASE_CHARTS)
def test_hessian_contracts_the_christoffels_on_the_frames_batch(name, potential):
    # hessian contracts the Christoffel jets on the frame's own batch
    # against f's jets on theirs; that must give the bits of the contraction
    # of both expanded to the grid.  The constant is the f = 0 of the
    # bundled trivial solitons.
    ch = bundled(name).chart
    x, _ = grid_nodes(ch, default_grid(ch))
    fr = frame(ch, x)
    f = seeded_potential(ch) if potential == "seeded" else scalar_field(ch, "0")
    sj = scalar_jets(f, x, order=4)
    batch = x.shape[:-1]
    full = full_grid_frame(fr, batch)
    full_sj = [np.broadcast_to(a, batch + a.shape[len(batch):]) for a in sj]
    for k in range(3):
        got = hessian(fr, sj, k)
        want = full_sj[2 + k] - leibniz(
            "...kij,...k->...ij", [full.Gamma, full.dGamma, full.d2Gamma],
            full_sj[1:], k=k)
        assert want.shape == batch + (ch.dim,) * (k + 2)
        assert got.flags.writeable
        assert np.array_equal(np.broadcast_to(got, want.shape), want)


def test_second_hessian_jet_does_not_copy_d2gamma_to_the_grid():
    # d2Gamma holds n^5 entries per node against d^2 Hess f's n^4, so a
    # full-grid copy of it takes the traced peak of hessian(k=2) to 4 times
    # the result's size; on the frame's batch it stays near 2.
    ch = bundled("sphere3").chart
    x, _ = grid_nodes(ch, default_grid(ch))
    fr = frame(ch, x)
    sj = scalar_jets(seeded_potential(ch), x, order=4)
    size = hessian(fr, sj, k=2).nbytes
    tracemalloc.start()
    try:
        hessian(fr, sj, k=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * size


def test_stacked_scalar_jets_match_one_field_at_a_time():
    # A constant, one-coordinate terms and a term in both coordinates have
    # different batches on the mesh; stacked, each reads as on its own.
    ch = generic_torus()
    x, _ = grid_nodes(ch, default_grid(ch, (8, 10)))
    fields = [scalar_field(ch, t) for t in
              ("1", "sin(y)", "cos(2*x)", "sin(x)*cos(y) + 0.3*x*y")]
    stacked = stacked_scalar_jets(fields, x)
    for k, f in enumerate(fields):
        single = scalar_jets(f, x)
        assert len(stacked) == len(single) == 4
        for got, want in zip(stacked, single):
            assert got.ndim == want.ndim + 1 and len(got) == len(fields)
            assert np.array_equal(got[k], np.broadcast_to(want, got.shape[1:]))


def test_gradient_vector_jets_requires_order_four():
    # d3xi needs d^4 f; order-3 jets give grad f with two derivatives only.
    ch = sphere2()
    x = mesh(ch, (3, 3))
    vj = gradient_vector_jets(frame(ch, x), scalar_jets(scalar_field(ch, "cos(th)"), x))
    # cos(th) and the round metric read th only, so the batch is (3, 1).
    assert len(vj) == 3 and vj[2].shape == (3, 1, 2, 2, 2)


def test_algebra_helpers():
    ch = warped_sphere()
    x = mesh(ch, (6, 5))
    fr = frame(ch, x)
    assert max_abs(trace_g(fr, fr.g) - 2.0) < 1e-13
    assert max_abs(norm2_sym2(fr, fr.g) - 2.0) < 1e-13
    v = np.stack([np.cos(x[..., 0]), np.sin(x[..., 1])], axis=-1)
    w = np.einsum("...ab,...b->...a", fr.g, v)
    assert max_abs(raise_covec(fr, w) - v) < 1e-13
    norm2_v = np.einsum("...ab,...a,...b->...", fr.g, v, v)
    assert max_abs(norm2_v - norm2_covec(fr, w)) < 1e-13
    assert max_abs(ric_vv(fr, v, v) - np.einsum("...ij,...i,...j->...", fr.Ric, v, v)) < 1e-15


def plain(subscripts, *operands):
    return np.einsum(subscripts, *operands, optimize=False)


# Each operator that contracts through ``contract``, next to numpy's plain
# einsum loop over every index combination.  t holds the seeded fields.
CONTRACTIONS = {
    "div_vector": (
        lambda fr, t: div_vector(fr, t.v, t.dv),
        lambda fr, t: plain("...aa->...", t.dv)
        + plain("...aab,...b->...", fr.Gamma, t.v)),
    "div_sym2": (
        lambda fr, t: div_sym2(fr, t.T, t.dT),
        lambda fr, t: plain("...ik,...ikj->...j", fr.ginv, t.dT)
        - plain("...ik,...lik,...lj->...j", fr.ginv, fr.Gamma, t.T)
        - plain("...ik,...lij,...kl->...j", fr.ginv, fr.Gamma, t.T)),
    "trace_g": (
        lambda fr, t: trace_g(fr, t.T),
        lambda fr, t: plain("...ij,...ij->...", fr.ginv, t.T)),
    "trace_g_jet": (
        lambda fr, t: trace_g_jet(fr, t.T, t.dT),
        lambda fr, t: plain("...ij,...aij->...a", fr.ginv, t.dT)
        + plain("...aij,...ij->...a", fr.dginv, t.T)),
    "norm2_sym2": (
        lambda fr, t: norm2_sym2(fr, t.T),
        lambda fr, t: plain("...ik,...jl,...ij,...kl->...", fr.ginv, fr.ginv,
                            t.T, t.T)),
    "norm2_covec": (
        lambda fr, t: norm2_covec(fr, t.w),
        lambda fr, t: plain("...ab,...a,...b->...", fr.ginv, t.w, t.w)),
    "pair_ginv": (  # Workspace.glapf and Workspace.gfr
        lambda fr, t: pair(fr.ginv, t.w, t.u),
        lambda fr, t: plain("...ab,...a,...b->...", fr.ginv, t.w, t.u)),
    "pair_g": (  # the g(v, w) integrand leaf
        lambda fr, t: pair(fr.g, t.v, t.u),
        lambda fr, t: plain("...ab,...a,...b->...", fr.g, t.v, t.u)),
    "raise_covec": (
        lambda fr, t: raise_covec(fr, t.w),
        lambda fr, t: plain("...ab,...b->...a", fr.ginv, t.w)),
    "ric_vv": (
        lambda fr, t: ric_vv(fr, t.v, t.u),
        lambda fr, t: plain("...ij,...i,...j->...", fr.Ric, t.v, t.u)),
    "ric_gradf": (  # solitons._div_lie
        lambda fr, t: contract("...jb,...b->...j", fr.Ric, t.v),
        lambda fr, t: plain("...jb,...b->...j", fr.Ric, t.v)),
    "nabla_vec_norm2": (
        lambda fr, t: nabla_vec_norm2(fr, [t.v, t.dv]),
        lambda fr, t: plain("...ij,...kl,...ik,...jl->...", fr.ginv, fr.g,
                            *[t.dv + plain("...kil,...l->...ik", fr.Gamma,
                                           t.v)] * 2)),
}


@pytest.mark.parametrize("route", ["own", "full"])
@pytest.mark.parametrize("op", CONTRACTIONS)
def test_contractions_match_the_plain_einsum_loop(op, route):
    # The check route contracts sphere3's frame on its own batch (16, 1, 1)
    # against full-grid fields; the fitted route reads the frame's
    # full-grid views.  The optimized path only reorders sums.
    ch = bundled("sphere3").chart
    x, _ = grid_nodes(ch, default_grid(ch))
    fr = frame(ch, x)
    if route == "full":
        fr = full_grid_frame(fr, x.shape[:-1])
    assert fr.r.shape == ((16, 1, 1) if route == "own" else (16, 16, 16))
    rng = np.random.default_rng(7)
    n, batch = ch.dim, x.shape[:-1]
    T = rng.uniform(-1.0, 1.0, batch + (n, n))
    dT = rng.uniform(-1.0, 1.0, batch + (n, n, n))
    t = types.SimpleNamespace(
        v=rng.uniform(-1.0, 1.0, batch + (n,)),
        u=rng.uniform(-1.0, 1.0, batch + (n,)),
        w=rng.uniform(-1.0, 1.0, batch + (n,)),
        dv=rng.uniform(-1.0, 1.0, batch + (n, n)),
        T=T + np.swapaxes(T, -1, -2), dT=dT + np.swapaxes(dT, -1, -2))
    got_fn, want_fn = CONTRACTIONS[op]
    got, want = got_fn(fr, t), want_fn(fr, t)
    assert got.shape == want.shape and got.shape[:3] == batch
    assert max_abs(got - want) <= 1e-13 * max_abs(want)


# ---------------------------------------------------------------- validation


def test_chart_validation_errors():
    for n in (1, 5):
        with pytest.raises(GeometryError, match="supported is 2..4"):
            chart("bad", ("x",) * n, (0,) * n, (1,) * n, (True,) * n,
                  [["1"] * n] * n)
    with pytest.raises(GeometryError):
        chart("bad", ("x", "y"), (0, 1), (1, 0), (True, True),
              [["1", "0"], ["0", "1"]])
    with pytest.raises(GeometryError):
        chart("bad", ("x", "y"), (0, 0), (1, 1), (True, True), [["1", "0"]])
    with pytest.raises(GeometryError):
        chart("bad", ("x", "y"), (0, 0), (1, 1), (True, True),
              [["1", "0"], ["0", "1"]], grid_hint=(4, 4))
    with pytest.raises(ValueError):
        chart("bad", ("pi", "y"), (0, 0), (1, 1), (True, True),
              [["1", "0"], ["0", "1"]])


def test_default_grid_hint_by_dimension():
    # Two axes keep 128 per periodic and 64 per other axis; three or more
    # take 16 per axis, which the bundled three-axis manifests also set.
    flat = [["1", "0"], ["0", "1"]]
    assert chart("c2", ("x", "y"), (0, 0), (1, 1), (True, False),
                 flat).grid_hint == (128, 64)
    eye3 = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    assert chart("c3", ("x", "y", "z"), (0,) * 3, (1,) * 3,
                 (True, False, True), eye3).grid_hint == (16, 16, 16)
    eye4 = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    assert chart("c4", ("w", "x", "y", "z"), (0,) * 4, (1,) * 4,
                 (True,) * 4, eye4).grid_hint == (16,) * 4


def test_metric_symmetry_violation_is_reported():
    ch = chart(
        "skewed", ("x", "y"), (0, 0), (TAU, TAU), (True, True),
        [["1", "0.1*sin(x)"], ["0", "1"]],
    )
    with pytest.raises(GeometryError) as info:
        frame(ch, mesh(ch, (6, 6)))
    assert "not symmetric" in str(info.value)
    assert str(info.value).endswith("at node (5, 0) (x=5.23599, y=0)")


def test_metric_positivity_violation_is_reported():
    ch = chart(
        "degenerate", ("x", "y"), (0, 0), (TAU, TAU), (True, True),
        [["cos(x)", "0"], ["0", "1"]],
    )
    with pytest.raises(GeometryError) as info:
        frame(ch, mesh(ch, (8, 4)))
    assert "positive definite" in str(info.value)
    assert "x=" in str(info.value)
    assert str(info.value).endswith("at node (4, 0) (x=3.14159, y=0)")


def torus(rows):
    n = len(rows)
    return chart(f"torus{n}", ("x", "y", "z")[:n], (0,) * n, (TAU,) * n,
                 (True,) * n, rows)


# Each error names the first failing node of the mesh in C order, although
# the entry at fault is evaluated only over the axis it depends on.
@pytest.mark.parametrize("rows,counts,message", [
    ([["1", "0.1*sin(y)"], ["0", "1"]], (6, 6),
     "not symmetric: entries [0][1] and [1][0] differ by 8.660e-02 at "
     "node (0, 5) (x=0, y=5.23599)"),
    ([["1", "0", "0"], ["0", "1", "0.1*sin(y)"], ["0", "0", "1"]], (5, 6, 7),
     "not symmetric: entries [1][2] and [2][1] differ by 8.660e-02 at "
     "node (0, 5, 0) (x=0, y=5.23599, z=0)"),
    ([["1", "0"], ["0", "cos(y)"]], (4, 8),
     "not positive definite (eigenvalue -1.000e+00) at "
     "node (0, 4) (x=0, y=3.14159)"),
    ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0.5 + cos(y)"]], (5, 6, 7),
     "not positive definite (eigenvalue -5.000e-01) at "
     "node (0, 3, 0) (x=0, y=3.14159, z=0)"),
])
def test_metric_violation_names_its_node(rows, counts, message):
    ch = torus(rows)
    with pytest.raises(GeometryError) as info:
        frame(ch, mesh(ch, counts))
    assert str(info.value) == f"metric of {ch.name!r} is {message}"


@pytest.mark.parametrize("text,label", [
    ("log(cos(y))", "node (0, 2, 0) (x=0, y=2.0944, z=0): log requires"),
    ("log(2 + cos(x) + sin(z)) + log(cos(y))",
     "node (0, 2, 0) (x=0, y=2.0944, z=0): log requires"),
    ("sqrt(sin(y)) * x", "node (0, 4, 0) (x=0, y=4.18879, z=0): sqrt requires"),
])
def test_out_of_domain_jet_names_its_node(text, label):
    ch = torus([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(GeometryError) as info:
        scalar_jets(scalar_field(ch, text), mesh(ch, (5, 6, 7)))
    assert f"{text!r} not defined at {label}" in str(info.value)


def test_stacked_scalar_jets_name_the_failing_field():
    ch = torus([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    fields = [scalar_field(ch, t) for t in ("sin(x)", "log(cos(y))", "z")]
    with pytest.raises(GeometryError) as info:
        stacked_scalar_jets(fields, mesh(ch, (5, 6, 7)))
    assert str(info.value).startswith(
        "fields ('sin(x)', 'log(cos(y))', 'z') entry [1] not defined at "
        "node (0, 2, 0) (x=0, y=2.0944, z=0): log requires")


# ------------------------------------------------------------ property tests


@st.composite
def torus_metrics(draw):
    coef = st.floats(-0.3, 0.3, allow_nan=False)
    a, b, c, d = (draw(coef) for _ in range(4))
    rows = [
        [f"1.5 + {a!r}*sin(x) + {b!r}*cos(y)", f"{0.3 * d!r}*sin(x)*cos(y)"],
        [f"{0.3 * d!r}*sin(x)*cos(y)", f"1.7 + {c!r}*sin(x + y)"],
    ]
    return chart("rand", ("x", "y"), (0, 0), (TAU, TAU), (True, True), rows)


@given(torus_metrics())
def test_random_metric_structural_identities(ch):
    x = mesh(ch, (6, 6))
    fr = frame(ch, x)
    # Levi-Civita symmetries.
    assert max_abs(fr.Gamma - np.swapaxes(fr.Gamma, -1, -2)) < 1e-12
    assert max_abs(fr.Ric - np.swapaxes(fr.Ric, -1, -2)) < 1e-10
    # d(g ginv) = 0, entry by entry.
    prod = np.einsum("...aik,...kj->...aij", fr.dg, fr.ginv) + np.einsum(
        "...ik,...akj->...aij", fr.g, fr.dginv
    )
    assert max_abs(prod) < 1e-12
    # Contracted Bianchi ties together every stored curvature array.
    residual = div_sym2(fr, fr.Ric, fr.dRic) - 0.5 * fr.dr
    assert max_abs(residual) < 1e-9

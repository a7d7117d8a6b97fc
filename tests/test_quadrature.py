"""Quadrature tests against integrals done in closed form by hand.

The cosine rule's design property: after the u = cos(sigma) substitution the
weights cancel the sin(sigma) factor of polar volume elements, so integrands
that are polynomial (or analytic) in cos(sigma) integrate at spectral
accuracy, exactly when polynomial of low enough degree.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solitonlab.geometry import (
    GeometryError,
    chart,
    div_vector,
    frame,
    vector_field,
    vector_jets,
)
from solitonlab.quadrature import (
    GridSpec,
    QuadratureError,
    axis_rule,
    default_grid,
    grid_nodes,
    integrate,
)
from solitonlab.expr import eval_jet, parse

from test_geometry import product_s2_s1, sphere2, sphere3_hopf, warped_sphere

TAU = 2 * math.pi


def torus2():
    return chart(
        "torus2", ("x", "y"), (0, 0), (TAU, TAU), (True, True),
        [["1", "0"], ["0", "1"]], (128, 128),
    )


# ------------------------------------------------------------ exact volumes


@pytest.mark.parametrize(
    "builder,counts,want",
    [
        (sphere2, (16, 16), 4 * math.pi),
        (sphere3_hopf, (12, 8, 8), 2 * math.pi**2),
        (torus2, (16, 16), 4 * math.pi**2),
        (product_s2_s1, (12, 10, 8), 4 * math.pi * 0.75 * TAU),
        (warped_sphere, (24, 8), 4.4 * math.pi),
    ],
)
def test_total_volumes(builder, counts, want):
    ch = builder()
    got = integrate(lambda x: np.ones(x.shape[:-1]), ch, default_grid(ch, counts))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-11)


def test_ricci_gradient_pairing_on_sphere():
    # For f = cos(th) on the unit sphere, Ric(grad f, grad f) = sin(th)^2 and
    # the integral is 8 pi / 3; the integrand is polynomial in cos(th), so a
    # small grid is already exact.
    ch = sphere2()
    spec = default_grid(ch, (16, 16))

    def fun(x):
        return np.sin(x[..., 0]) ** 2

    assert integrate(fun, ch, spec) == pytest.approx(8 * math.pi / 3, rel=1e-13)


def test_analytic_function_of_cosine_is_spectrally_exact():
    # cos(cos(th)) integrates to 4 pi sin(1) on the unit sphere; the
    # transformed integrand is entire in u = cos(th), so even modest grids
    # agree with the closed form and with each other to machine precision.
    ch = sphere2()

    def fun(x):
        return np.cos(np.cos(x[..., 0]))

    want = 4 * math.pi * math.sin(1.0)
    coarse = integrate(fun, ch, default_grid(ch, (16, 12)))
    fine = integrate(fun, ch, default_grid(ch, (32, 24)))
    assert coarse == pytest.approx(want, rel=1e-12)
    assert abs(coarse - fine) < 1e-12


def test_trapezoid_kills_fourier_modes():
    ch = torus2()
    spec = default_grid(ch, (16, 16))
    assert integrate(
        lambda x: np.sin(3 * x[..., 0]) * np.cos(5 * x[..., 1]), ch, spec
    ) == pytest.approx(0.0, abs=1e-12)
    assert integrate(
        lambda x: 2.0 + np.sin(x[..., 0]), ch, spec
    ) == pytest.approx(2 * 4 * math.pi**2, rel=1e-14)


@given(st.lists(st.floats(-1, 1), min_size=1, max_size=11))
def test_cosine_rule_polynomial_exactness(coeffs):
    # Degree <= 10 polynomials in cos(th) against their antiderivative.
    ch = sphere2()
    spec = default_grid(ch, (16, 8))
    poly = np.polynomial.Polynomial(coeffs)

    def fun(x):
        return poly(np.cos(x[..., 0]))

    want = TAU * poly.integ()(1.0) - TAU * poly.integ()(-1.0)
    got = integrate(fun, ch, spec)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-10)


# ------------------------------------------------------- divergence theorem


def test_divergence_theorem_sphere():
    ch = sphere2()
    spec = default_grid(ch, (20, 16))
    x, w = grid_nodes(ch, spec)
    rng = np.random.default_rng(11)
    for _ in range(4):
        a, b, c, d = (float(v) for v in rng.uniform(-1, 1, 4))
        field = vector_field(ch, (
            f"sin(th)*({a!r} + {b!r}*cos(th)^2)*(1 + {c!r}*cos(ph))",
            f"{d!r}*cos(th) + 0.2*sin(2*ph)",
        ))
        vj = vector_jets(field, x)
        fr = frame(ch, x)
        total = integrate(div_vector(fr, vj.xi, vj.dxi), ch, spec)
        assert abs(total) < 1e-11


def test_divergence_theorem_hopf_sphere():
    ch = sphere3_hopf()
    spec = default_grid(ch, (12, 10, 10))
    x, w = grid_nodes(ch, spec)
    field = vector_field(ch, (
        "sin(2*eta)*(0.4 + 0.3*cos(2*eta))*(1 + 0.5*sin(x1))",
        "0.7 + 0.2*cos(x2)",
        "0.1*sin(x1) - 0.3",
    ))
    vj = vector_jets(field, x)
    fr = frame(ch, x)
    total = integrate(div_vector(fr, vj.xi, vj.dxi), ch, spec)
    assert abs(total) < 1e-11


# ----------------------------------------------------------------- plumbing


def test_axis_rules():
    nodes, weights = axis_rule("periodic", 0.0, TAU, 16)
    assert len(nodes) == 16 and nodes[0] == 0.0 and nodes[-1] < TAU
    assert np.allclose(weights.sum(), TAU)

    nodes, weights = axis_rule("legendre", 1.0, 2.0, 12)
    assert np.all((nodes > 1.0) & (nodes < 2.0))
    assert np.sum(weights * nodes**3) == pytest.approx(15 / 4, rel=1e-14)

    nodes, weights = axis_rule("cosine", 0.0, math.pi, 12)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > 0.01 and nodes[-1] < math.pi - 0.01
    # Exactness on sin(sigma) * P(cos(sigma)): integral of sin * cos^4 is 2/5.
    assert np.sum(weights * np.sin(nodes) * np.cos(nodes) ** 4) == pytest.approx(
         2 / 5, rel=1e-14
    )
    assert np.all(weights > 0)

    nodes, _ = axis_rule("cosine", 0.0, math.pi, 12, margin=0.1)
    assert nodes[0] > 0.1 and nodes[-1] < math.pi - 0.1


def test_grid_nodes_shapes_and_cache():
    ch = sphere2()
    spec = default_grid(ch, (16, 12))
    x, w = grid_nodes(ch, spec)
    assert x.shape == (16, 12, 2)
    assert w.shape == (16, 12)
    x2, w2 = grid_nodes(ch, spec)
    assert x2 is x and w2 is w
    assert not x.flags.writeable


def test_grid_validation():
    ch = sphere2()
    with pytest.raises(QuadratureError):
        GridSpec((4, 16), ("cosine", "periodic"))
    with pytest.raises(QuadratureError):
        GridSpec((16, 16), ("simpson", "periodic"))
    with pytest.raises(QuadratureError):
        GridSpec((16,), ("cosine", "periodic"))
    with pytest.raises(QuadratureError):
        default_grid(ch, (16, 16, 16))
    with pytest.raises(QuadratureError):
        integrate(np.ones((3, 3)), ch, default_grid(ch, (16, 12)))


def test_degenerate_metric_names_its_node():
    # The volume density comes from the frame, whose Cholesky factorization
    # rejects a metric that is not positive definite at some node.
    ch = chart(
        "degenerate", ("x", "y"), (0, 0), (TAU, TAU), (True, True),
        [["cos(x)", "0"], ["0", "1"]],
    )
    with pytest.raises(GeometryError, match=r"not positive definite.* at node .*x="):
        integrate(lambda x: np.ones(x.shape[:-1]), ch, default_grid(ch, (8, 8)))


def test_integrand_domain_error_reports_node():
    ch = sphere2()
    node = parse("log(cos(th))", ch.coords)

    def fun(x):
        return eval_jet(node, x).value

    with pytest.raises(QuadratureError) as info:
        integrate(fun, ch, default_grid(ch, (16, 12)))
    assert "th=" in str(info.value)


def test_integrand_domain_error_names_its_only_bad_node():
    # On an 8 x 8 torus grid only node (3, 5) lies in the disk where the
    # logarithm's argument is negative.
    ch = torus2()
    node = parse("log((x - 3*pi/4)^2 + (y - 5*pi/4)^2 - 0.01)", ch.coords)

    def fun(x):
        return eval_jet(node, x).value

    with pytest.raises(QuadratureError) as info:
        integrate(fun, ch, default_grid(ch, (8, 8)))
    assert str(info.value) == (
        "integrand not defined at node (3, 5) (x=2.35619, y=3.92699): "
        "log requires a positive value"
    )

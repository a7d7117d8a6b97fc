"""Quadrature tests against integrals done in closed form by hand.

The cosine rule's design property: after the u = cos(sigma) substitution the
weights cancel the sin(sigma) factor of polar volume elements, so integrands
that are polynomial (or analytic) in cos(sigma) integrate at spectral
accuracy, exactly when polynomial of low enough degree.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solitonlab.geometry import (
    GeometryError,
    chart,
    div_vector,
    frame,
    scalar_field,
    scalar_jets,
    vector_field,
    vector_jets,
)
from solitonlab.quadrature import (
    GridSpec,
    QuadratureError,
    _gauss_legendre,
    axis_rule,
    axis_rules,
    default_grid,
    grid_nodes,
)
from solitonlab.solitons import grid_frame

from test_geometry import product_s2_s1, sphere2, sphere3_hopf, warped_sphere

TAU = 2 * math.pi


def torus2():
    return chart(
        "torus2", ("x", "y"), (0, 0), (TAU, TAU), (True, True),
        [["1", "0"], ["0", "1"]], (128, 128),
    )


def integrate(fun, ch, spec):
    """Integral against the metric volume: fun maps the node mesh to values."""
    x, w = grid_nodes(ch, spec)
    return float(np.sum(fun(x) * w * grid_frame(ch, spec).sqrtg))


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
        total = np.sum(div_vector(fr, vj[0], vj[1]) * w * fr.sqrtg)
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
    total = np.sum(div_vector(fr, vj[0], vj[1]) * w * fr.sqrtg)
    assert abs(total) < 1e-11


# ----------------------------------------------------------------- plumbing


def test_axis_rules():
    nodes, weights = axis_rule("periodic", 0.0, TAU, 16)
    assert len(nodes) == 16 and nodes[0] == 0.0 and nodes[-1] < TAU
    assert np.allclose(weights.sum(), TAU)

    nodes, weights = axis_rule("cosine", 0.0, math.pi, 12)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > 0.01 and nodes[-1] < math.pi - 0.01
    # Exactness on sin(sigma) * P(cos(sigma)): integral of sin * cos^4 is 2/5.
    assert np.sum(weights * np.sin(nodes) * np.cos(nodes) ** 4) == pytest.approx(
         2 / 5, rel=1e-14
    )
    assert np.all(weights > 0)


GL_COUNTS = (8, 9, 16, 64, 127, 128, 512, 1024)


@pytest.mark.parametrize("m", GL_COUNTS)
def test_gauss_legendre_is_numpys_leggauss(m):
    # Bit-equal with numpy 2.4; the tolerance only covers a numpy whose
    # legval rounds differently.
    x, w = _gauss_legendre(m)
    want_x, want_w = np.polynomial.legendre.leggauss(m)
    np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, want_w, rtol=1e-13, atol=0)


@pytest.mark.parametrize("m", GL_COUNTS)
def test_gauss_legendre_degree_of_exactness(m):
    # m nodes integrate every polynomial of degree 2m - 1 over [-1, 1].
    x, w = _gauss_legendre(m)
    assert abs(np.sum(w * x ** (2 * m - 1))) < 1e-13
    assert abs(np.sum(w * x ** (2 * m - 2)) - 2 / (2 * m - 1)) < 1e-13


def test_describe_on_a_polar_chart_does_not_import_numpy_polynomial():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from solitonlab.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    assert main(['describe', 'sphere2']) == 0\n"
            "print('numpy.polynomial' in sys.modules)\n")
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


def test_sphere_grid_takes_its_rules_from_the_chart():
    # The spec holds only counts: the polar axis gets the cosine rule, whose
    # nodes lie strictly inside (0, pi), and the box is integrated whole.
    ch = sphere2()
    spec = GridSpec((16, 32))
    assert axis_rules(ch) == ("cosine", "periodic")
    x, w = grid_nodes(ch, spec)
    th = x[:, 0, 0]
    assert np.all(np.diff(th) > 0) and 0 < th[0] and th[-1] < math.pi
    assert np.sum(w * grid_frame(ch, spec).sqrtg) == pytest.approx(
        4 * math.pi, abs=1e-12)


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
        GridSpec((4, 16))
    with pytest.raises(QuadratureError):
        default_grid(ch, (16, 16, 16))
    with pytest.raises(QuadratureError, match="grid spec has 3 axes"):
        grid_nodes(ch, GridSpec((16, 16, 16)))


def test_degenerate_metric_names_its_node():
    # The volume density comes from the frame, whose Cholesky factorization
    # rejects a metric that is not positive definite at some node.
    ch = chart(
        "degenerate", ("x", "y"), (0, 0), (TAU, TAU), (True, True),
        [["cos(x)", "0"], ["0", "1"]],
    )
    with pytest.raises(GeometryError, match=r"not positive definite.* at node .*x="):
        grid_frame(ch, default_grid(ch, (8, 8)))


def test_integrand_domain_error_reports_node():
    ch = sphere2()
    x, _ = grid_nodes(ch, default_grid(ch, (16, 12)))
    with pytest.raises(GeometryError) as info:
        scalar_jets(scalar_field(ch, "log(cos(th))"), x)
    assert "th=" in str(info.value)


def test_integrand_domain_error_names_its_only_bad_node():
    # On an 8 x 8 torus grid only node (3, 5) lies in the disk where the
    # logarithm's argument is negative.
    ch = torus2()
    text = "log((x - 3*pi/4)^2 + (y - 5*pi/4)^2 - 0.01)"
    x, _ = grid_nodes(ch, default_grid(ch, (8, 8)))
    with pytest.raises(GeometryError) as info:
        scalar_jets(scalar_field(ch, text), x)
    assert str(info.value) == (
        f"{text!r} not defined at node (3, 5) (x=2.35619, y=3.92699): "
        "log requires a positive value"
    )

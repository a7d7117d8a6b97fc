"""Jet arithmetic against independent oracles.

Two oracles back these tests: a dict-based truncated polynomial calculus
(shift a polynomial to the expansion point and read off Taylor
coefficients), and central finite differences for the elementary functions.
Neither shares code with the jet engine.  The support tests at the end take
the engine's whole convolution, on full-support copies, as their reference.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solitonlab import jets
from solitonlab.jets import Jet, JetDomainError, constant, multi_indices, seed


# ---------------------------------------------------------------------------
# polynomial oracle: dicts mapping exponent tuples to coefficients


def poly_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = out.get(k, 0.0) + ca * cb
    return out


def poly_add(p, q):
    out = dict(p)
    for a, c in q.items():
        out[a] = out.get(a, 0.0) + c
    return out


def poly_shift(p, x):
    """Coefficients of y -> p(x + y), exact binomial expansion."""
    dim = len(x)
    out = {}
    for alpha, c in p.items():
        term = {tuple([0] * dim): c}
        for i, ai in enumerate(alpha):
            expanded = {}
            for k in range(ai + 1):
                mono = [0] * dim
                mono[i] = k
                expanded[tuple(mono)] = math.comb(ai, k) * x[i] ** (ai - k)
            term = poly_mul(term, expanded)
        out = poly_add(out, term)
    return out


def poly_eval_jet(p, dim, order=3):
    """Evaluate a polynomial through jet arithmetic (the system under test)."""

    def at(x):
        x = np.asarray(x, dtype=float)
        acc = constant(dim, np.zeros(x.shape[:-1]), order)
        for alpha, c in sorted(p.items()):
            term = constant(dim, np.full(x.shape[:-1], c), order)
            for i, ai in enumerate(alpha):
                for _ in range(ai):
                    term = term * seed(dim, x, i, order)
            acc = acc + term
        return acc

    return at


def jet_coeffs_from_poly(p, x, order=3):
    shifted = poly_shift(p, x)
    return {a: c for a, c in shifted.items() if sum(a) <= order}


def partial(jet, alpha):
    """d^alpha f of an unbatched jet, read from ``Jet.derivative``."""
    axes = tuple(t for t, a in enumerate(alpha) for _ in range(a))
    return float(jet.derivative(len(axes))[axes])


def assert_jet_matches_poly(jet, p, x, tol=1e-10, order=3):
    """Compare every Taylor coefficient d^alpha f / alpha! of an unbatched
    jet with the oracle's, truncated at ``order``."""
    assert jet.order == order
    want = jet_coeffs_from_poly(p, x, order)
    scale = max(1.0, max(abs(c) for c in want.values()) if want else 1.0)
    for alpha in multi_indices(jet.dim, order):
        got = partial(jet, alpha) / math.prod(map(math.factorial, alpha))
        expect = want.get(alpha, 0.0)
        assert abs(got - expect) <= tol * scale, (alpha, got, expect)


def random_poly(rng, dim, max_deg=3, terms=6):
    p = {}
    for _ in range(terms):
        alpha = tuple(rng.integers(0, max_deg + 1, size=dim))
        if sum(alpha) > max_deg:
            continue
        p[alpha] = float(rng.uniform(-2, 2))
    p.setdefault(tuple([0] * dim), 1.0)
    return p


# ---------------------------------------------------------------------------
# finite-difference oracle for the elementary functions


def fd_derivs(f, x):
    """(f', f'', f''') by fourth-order central stencils.

    The step scales with the point so the oracle stays accurate for log and
    sqrt near the low end of their sampled range; fourth-order stencils keep
    both truncation and roundoff below the comparison tolerance.
    """
    h = 0.01 * max(abs(x), 0.4)
    pts = {k: f(x + k * h) for k in range(-3, 4)}
    d1 = (pts[-2] - 8 * pts[-1] + 8 * pts[1] - pts[2]) / (12 * h)
    d2 = (-pts[-2] + 16 * pts[-1] - 30 * pts[0] + 16 * pts[1] - pts[2]) / (
        12 * h**2
    )
    d3 = (
        pts[-3] - 8 * pts[-2] + 13 * pts[-1] - 13 * pts[1] + 8 * pts[2] - pts[3]
    ) / (8 * h**3)
    return d1, d2, d3


# ---------------------------------------------------------------------------
# pinned single values


def test_seed_layout():
    j = seed(1, [0.0], 0)
    assert j.value == 0.0
    assert j.derivative(1)[0] == 1.0
    assert np.all(j.derivative(2) == 0.0)
    cube = j * j * j
    assert partial(cube, (3,)) == pytest.approx(6.0, abs=1e-14)
    assert cube.value == 0.0
    assert cube.derivative(1)[0] == 0.0
    assert cube.derivative(2)[0, 0] == 0.0


def test_sin_at_zero():
    j = jets.sin(seed(1, [0.0], 0))
    assert j.value == pytest.approx(0.0, abs=1e-15)
    assert partial(j, (1,)) == pytest.approx(1.0, abs=1e-15)
    assert partial(j, (2,)) == pytest.approx(0.0, abs=1e-15)
    assert partial(j, (3,)) == pytest.approx(-1.0, abs=1e-15)


def test_exp_at_one():
    j = jets.exp(seed(1, [1.0], 0))
    e = math.e
    for alpha in [(0,), (1,), (2,), (3,)]:
        assert partial(j, alpha) == pytest.approx(e, rel=1e-14)


def test_sqrt_of_constant():
    j = jets.sqrt(constant(1, 4.0))
    assert j.value == pytest.approx(2.0)
    assert partial(j, (1,)) == 0.0
    assert partial(j, (2,)) == 0.0


def test_square_at_two():
    x = seed(1, [2.0], 0)
    sq = x * x
    assert partial(sq, (0,)) == pytest.approx(4.0)
    assert partial(sq, (1,)) == pytest.approx(4.0)
    assert partial(sq, (2,)) == pytest.approx(2.0)
    assert partial(sq, (3,)) == pytest.approx(0.0, abs=1e-14)


def test_reciprocal_at_one():
    x = seed(1, [1.0], 0)
    r = constant(1, 1.0) / x
    assert partial(r, (0,)) == pytest.approx(1.0)
    assert partial(r, (1,)) == pytest.approx(-1.0)
    assert partial(r, (2,)) == pytest.approx(2.0)
    assert partial(r, (3,)) == pytest.approx(-6.0)


def test_product_rule_trig_identity():
    # sin * cos == sin(2x)/2, all coefficients
    for x0 in [0.3, 1.1, 2.7]:
        x = seed(1, [x0], 0)
        lhs = jets.sin(x) * jets.cos(x)
        rhs = jets.sin(x * 2.0) * 0.5
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12


def test_bivariate_product():
    x = np.array([2.0, 3.0])
    j = seed(2, x, 0) * seed(2, x, 1)
    assert j.value == pytest.approx(6.0)
    assert partial(j, (1, 0)) == pytest.approx(3.0)
    assert partial(j, (0, 1)) == pytest.approx(2.0)
    assert partial(j, (1, 1)) == pytest.approx(1.0)
    assert partial(j, (2, 0)) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# finite-difference agreement for elementary functions


CASES = [
    (jets.sin, np.sin, [-2.0, 0.4, 1.9]),
    (jets.cos, np.cos, [-1.3, 0.0, 2.2]),
    (jets.exp, np.exp, [-1.0, 0.25, 1.7]),
    (jets.log, np.log, [0.4, 1.0, 2.9]),
    (jets.sqrt, np.sqrt, [0.3, 1.2, 4.1]),
]


@pytest.mark.parametrize("jet_fn,ref,points", CASES)
def test_elementary_against_finite_differences(jet_fn, ref, points):
    for x0 in points:
        j = jet_fn(seed(1, [x0], 0))
        want = fd_derivs(ref, x0)
        got = (partial(j, (1,)), partial(j, (2,)), partial(j, (3,)))
        for w, g in zip(want, got):
            assert abs(w - g) <= 1e-5 * max(1.0, abs(w))


def test_cos_partials_close_to_fd_tight():
    x0 = math.pi / 3
    j = jets.cos(seed(1, [x0], 0))
    d1 = (math.cos(x0 + 1e-4) - math.cos(x0 - 1e-4)) / 2e-4
    assert abs(partial(j, (1,)) - d1) <= 1e-6


def test_random_point_fd_sweep(rng):
    for _ in range(20):
        x0 = float(rng.uniform(0.2, 2.5))
        for jet_fn, ref, _ in CASES:
            j = jet_fn(seed(1, [x0], 0))
            want = fd_derivs(ref, x0)
            for order, w in enumerate(want, start=1):
                g = partial(j, (order,))
                assert abs(w - g) <= 1e-5 * max(1.0, abs(w))


# ---------------------------------------------------------------------------
# ring properties against the polynomial oracle


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_poly_sum_product_match_oracle(dim, order, rng):
    # Products of degree-`order` polynomials reach degree 2 * order, so the
    # truncation itself is under test.
    for _ in range(8):
        p = random_poly(rng, dim, max_deg=order)
        q = random_poly(rng, dim, max_deg=order)
        x = rng.uniform(-1.5, 1.5, size=dim)
        jp = poly_eval_jet(p, dim, order)(x)
        jq = poly_eval_jet(q, dim, order)(x)
        assert_jet_matches_poly(jp + jq, poly_add(p, q), x, order=order)
        assert_jet_matches_poly(jp - jq, poly_add(p, {a: -c for a, c in q.items()}),
                                x, order=order)
        assert_jet_matches_poly(jp * jq, poly_mul(p, q), x, order=order)


def test_poly_composition_matches_oracle(rng):
    # univariate cubic composed with a bivariate polynomial
    dim = 2
    for _ in range(6):
        inner = random_poly(rng, dim, max_deg=2, terms=4)
        outer = [float(rng.uniform(-1, 1)) for _ in range(4)]
        composed = {tuple([0] * dim): outer[0]}
        power = {tuple([0] * dim): 1.0}
        for k in range(1, 4):
            power = poly_mul(power, inner)
            composed = poly_add(composed, {a: outer[k] * c for a, c in power.items()})
        x = rng.uniform(-1.0, 1.0, size=dim)
        jin = poly_eval_jet(inner, dim)(x)
        jout = (
            constant(dim, outer[0])
            + jin * outer[1]
            + jets.powc(jin, 2) * outer[2]
            + jets.powc(jin, 3) * outer[3]
        )
        assert_jet_matches_poly(jout, composed, x, tol=1e-9)


@given(st.lists(st.floats(-2, 2), min_size=4, max_size=4))
def test_division_roundtrip(cs):
    # (p * q) / q == p wherever q is bounded away from zero
    x = np.array([0.7])
    p = constant(1, cs[0]) + seed(1, x, 0) * cs[1]
    q = constant(1, 2.5 + abs(cs[2])) + seed(1, x, 0) * cs[3]
    back = (p * q) / q
    assert np.max(np.abs(back.coeffs - p.coeffs)) <= 1e-10


# ---------------------------------------------------------------------------
# structure, batching, errors


def test_multi_index_enumeration_counts():
    for dim in (1, 2, 3, 4):
        idx = multi_indices(dim)
        assert len(idx) == math.comb(dim + 3, 3)
        assert len(set(idx)) == len(idx)
        assert all(sum(a) <= 3 for a in idx)
        assert idx[0] == tuple([0] * dim)


def test_batched_matches_pointwise(rng):
    xs = rng.uniform(0.2, 2.0, size=(7, 2))
    batched = jets.sin(seed(2, xs, 0)) * jets.exp(seed(2, xs, 1) * 0.3)
    for i, x in enumerate(xs):
        single = jets.sin(seed(2, x, 0)) * jets.exp(seed(2, x, 1) * 0.3)
        for k in range(batched.order + 1):
            assert np.allclose(batched.derivative(k)[i], single.derivative(k),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("order", [3, 4])
def test_broadcast_products_match_pointwise(order, rng):
    # A 2-D batch against an unbatched jet, a constant array and a jet whose
    # batch is only the trailing axis: batch axes align on the right.
    dim = 3
    xs = rng.uniform(0.2, 2.0, size=(3, 4, dim))
    x0 = rng.uniform(0.2, 2.0, size=dim)
    scale = rng.uniform(-1.0, 1.0, size=4)

    def grid(x):
        return jets.sin(seed(dim, x, 0, order)) * seed(dim, x, 2, order)

    def row(x):
        return jets.cos(seed(dim, x, 1, order))

    u = jets.exp(seed(dim, x0, 1, order) * 0.5) + seed(dim, x0, 0, order)
    a, r = grid(xs), row(xs[0])
    # (batched jet, its batch shape, the same jet at node (p, q))
    cases = [
        (a * u, (3, 4), lambda p, q: grid(xs[p, q]) * u),
        (u * a, (3, 4), lambda p, q: u * grid(xs[p, q])),
        (a * r, (3, 4), lambda p, q: grid(xs[p, q]) * row(xs[0, q])),
        (r * a, (3, 4), lambda p, q: row(xs[0, q]) * grid(xs[p, q])),
        (a + u, (3, 4), lambda p, q: grid(xs[p, q]) + u),
        (u - a, (3, 4), lambda p, q: u - grid(xs[p, q])),
        (a - r, (3, 4), lambda p, q: grid(xs[p, q]) - row(xs[0, q])),
        (a * scale, (3, 4), lambda p, q: grid(xs[p, q]) * scale[q]),
        (u * scale, (4,), lambda p, q: u * scale[q]),
    ]
    for batched, shape, at in cases:
        assert batched.value.shape == shape
        for p, q in np.ndindex(3, 4):
            single = at(p, q)
            for k in range(order + 1):
                got = np.broadcast_to(batched.derivative(k), (3, 4) + (dim,) * k)
                assert np.allclose(got[p, q], single.derivative(k),
                                   rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("order", [3, 4])
def test_constant_product_matches_the_convolution(order, rng):
    # A product with a Python float or an array scales the coefficients;
    # the convolution with the same constant as a jet is the reference.
    dim = 3
    xs = rng.uniform(0.2, 2.0, size=(3, 4, dim))
    a = jets.sin(seed(dim, xs, 0, order)) * seed(dim, xs, 2, order)
    u = jets.exp(seed(dim, xs[0, 0], 1, order))
    for jet in (a, u):
        for c in (0.3, -1.7, rng.uniform(-1.0, 1.0, size=4),
                  rng.uniform(-1.0, 1.0, size=(2, 3, 4))):
            reference = jet * constant(dim, c, order)
            for got in ((jet * c, c * jet) if np.isscalar(c) else (jet * c,)):
                assert got.coeffs.shape == reference.coeffs.shape
                assert np.array_equal(got.coeffs, reference.coeffs)


def test_log_domain_error_reports_offender():
    xs = np.array([[1.0], [2.0], [-3.0]])
    with pytest.raises(JetDomainError) as err:
        jets.log(seed(1, xs, 0))
    assert err.value.index == 2
    assert err.value.value == -3.0
    assert err.value.shape == (3,)


def test_sqrt_domain_errors():
    with pytest.raises(JetDomainError):
        jets.sqrt(seed(1, [-1.0], 0))
    with pytest.raises(JetDomainError):
        # vanishing value with nonzero slope has no truncated expansion
        jets.sqrt(seed(1, [0.0], 0))
    assert jets.sqrt(constant(1, 0.0)).value == 0.0


def test_division_by_zero_value():
    with pytest.raises(JetDomainError):
        constant(1, 1.0) / seed(1, [0.0], 0)


def test_integer_and_fractional_powers():
    x = seed(1, [1.7], 0)
    assert np.allclose(jets.powc(x, 3).coeffs, (x * x * x).coeffs, atol=1e-13)
    inv2 = jets.powc(x, -2)
    ref = constant(1, 1.0) / (x * x)
    assert np.allclose(inv2.coeffs, ref.coeffs, atol=1e-13)
    frac = jets.powc(x, 0.5)
    assert np.allclose(frac.coeffs, jets.sqrt(x).coeffs, atol=1e-12)
    with pytest.raises(JetDomainError):
        jets.powc(seed(1, [-1.0], 0), 0.5)


def test_order_four_extraction():
    x = seed(1, [0.5], 0, order=4)
    j = jets.powc(x, 4)
    assert j.derivative(4)[0, 0, 0, 0] == pytest.approx(24.0)
    s = jets.sin(seed(1, [0.9], 0, order=4))
    assert s.derivative(4)[0, 0, 0, 0] == pytest.approx(math.sin(0.9), rel=1e-12)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_derivative_tensors_match_partials(dim, order, rng):
    # Every entry of d^k f is alpha! times the Taylor coefficient of its
    # multi-index alpha, over a batch.
    x = rng.uniform(0.5, 1.5, size=(3, dim))
    xs = [seed(dim, x, i, order) for i in range(dim)]
    f = jets.exp(xs[0] * xs[-1]) / (constant(dim, 2.0, order) + jets.sin(sum(xs)))
    for k in range(order + 1):
        d = f.derivative(k)
        assert d.shape == (3,) + (dim,) * k
        for axes in np.ndindex(*(dim,) * k):
            alpha = tuple(axes.count(t) for t in range(dim))
            want = (f.coeffs[multi_indices(dim, order).index(alpha)]
                    * math.prod(map(math.factorial, alpha)))
            assert np.array_equal(d[(...,) + axes], want)
    with pytest.raises(ValueError):
        f.derivative(order + 1)


def test_apply_unary_dispatch():
    x = seed(1, [0.8], 0)
    assert np.allclose(jets.apply_unary("sin", x).coeffs, jets.sin(x).coeffs)
    with pytest.raises(ValueError):
        jets.apply_unary("tan", x)


# ---------------------------------------------------------------------------
# supports: a product skips only pairs whose products are exact zeros


def mesh_seeds(dim, order):
    """Coordinate jets on a small tensor mesh, each seeded with its own axis
    nodes in shape (1, .., m_i, .., 1), as ``geometry`` seeds a grid."""
    counts = (3, 2, 4, 2)[:dim]
    x = np.stack(np.meshgrid(*(np.linspace(0.3, 1.1, m) for m in counts),
                             indexing="ij"), axis=-1)
    return [seed(dim, x[tuple(slice(None) if a == i else slice(1)
                              for a in range(dim))], i, order)
            for i in range(dim)]


def full(a):
    """``a`` with every bit of support set, as a jet built from raw
    coefficients has; numbers pass through."""
    return Jet(a.dim, a.coeffs, a.order) if isinstance(a, Jet) else a


def support_of(a):
    return a.support if isinstance(a, Jet) else 0


BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}
UNARY = {
    "sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "log": jets.log,
    "sqrt": jets.sqrt,
    **{f"powc {c}": (lambda a, c=c: jets.powc(a, c)) for c in (2, 3, -2, 0.5, 2.5)},
}


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_support_restricted_jets_match_full_support_bit_for_bit(dim, order):
    # Operands of every support shape: one coordinate, a sum and a product
    # of two, a constant (batched along the last axis, unbatched, or a
    # plain number) and an unbatched jet, all positive so that every
    # operation is defined.  Each result must equal, bit for bit, the same
    # operation on full-support copies, and carry its operands' union.
    xs = mesh_seeds(dim, order)
    last = xs[-1].value.shape[-1]
    a, b = jets.sin(xs[0]), jets.cos(xs[1])
    s = a + b
    p = jets.exp(xs[-1]) * a
    q = xs[1] * constant(dim, np.linspace(0.8, 1.2, last), order)
    u = jets.sin(seed(dim, np.full(dim, 0.4), dim - 1, order))
    pos = 2.0 + a * b - p * 0.1
    operands = [a, b, s, p, q, u, pos, constant(dim, 1.7, order), 2.5,
                np.linspace(0.5, 1.5, last)]
    for x, y in product(operands, repeat=2):
        # An array on the left would take the jet as an array element.
        if not (isinstance(x, Jet) or isinstance(y, Jet) and np.isscalar(x)):
            continue
        for name, op in BINARY.items():
            got = op(x, y)
            assert got.support == support_of(x) | support_of(y), name
            for want in (op(full(x), full(y)), op(x, full(y)), op(full(x), y)):
                assert np.array_equal(got.coeffs, want.coeffs), name
    for x in (a, s, p, q, u, pos):
        for name, op in UNARY.items():
            got = op(x)
            assert got.support == x.support, name
            assert np.array_equal(got.coeffs, op(full(x)).coeffs), name


def test_support_algebra():
    dim, order = 3, 4
    x0, x1, x2 = mesh_seeds(dim, order)
    assert (x0.support, x1.support, x2.support) == (0b001, 0b010, 0b100)
    assert constant(dim, np.ones(3), order).support == 0
    assert Jet(dim, x0.coeffs, order).support == 0b111
    assert (x0 + x1).support == (x1 + x0).support == 0b011
    assert (x0 - x2).support == (x2 - x0).support == 0b101
    assert (x1 * x2).support == (x1 / x2).support == 0b110
    assert (x0 + 1.0).support == (1.0 - x0).support == (2.0 * x0).support == 1
    assert (-x1).support == jets.sin(x1).support == jets.powc(x1, 3).support == 2
    assert (x0 * x1 + x2).support == 0b111


def test_overflowing_mesh_factor_is_flagged_where_the_convolution_is():
    # exp(800 sin x) overflows at the last x node (800 sin 1.1 > 709.8).
    # The whole convolution multiplies that inf by the exact zeros of
    # cos(y)'s x-rows and gets nan; the support skips those pairs and
    # leaves inf.  The nodes that are not finite are the same.
    x, y = mesh_seeds(2, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = jets.exp(jets.sin(x) * 800.0)
        got, want = factor * jets.cos(y), full(factor) * full(jets.cos(y))
    bad = ~np.isfinite(got.coeffs).all(axis=0)
    assert np.array_equal(bad, ~np.isfinite(want.coeffs).all(axis=0))
    assert bad[-1].all() and not bad[:-1].any()
    assert np.isnan(want.coeffs).any()
    for jet in (got, want):
        with pytest.raises(JetDomainError) as err:
            jets.check_finite(jet)
        assert (err.value.index, err.value.shape) == (4, (3, 2))

"""Parser and jet-evaluation tests for the expression language.

The oracle for values is a direct pointwise evaluator built on the math
module; derivative checks use closed forms differentiated by hand, so the
comparisons never route through the jet engine being tested.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solitonlab.expr import (
    BinOp,
    Call,
    Const,
    ExprError,
    Geo,
    Neg,
    Var,
    FUNCTIONS,
    eval_number,
    eval_values,
    evaluate,
    parse,
    parse_integrand,
)
from solitonlab.jets import JetDomainError, seed


# ----------------------------------------------------------------- oracles


def eval_jet(node, x):
    """Order-3 jet of ``node`` at points x of shape (..., dim)."""
    x = np.asarray(x, dtype=float)
    return evaluate(node, [seed(x.shape[-1], x, i) for i in range(x.shape[-1])])


def peval(node, env):
    """Pointwise reference evaluator over plain floats."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.index]
    if isinstance(node, Neg):
        return -peval(node.arg, env)
    if isinstance(node, Call):
        return getattr(math, node.func)(peval(node.arg, env))
    left = peval(node.left, env)
    right = peval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    return math.pow(left, right)


def ast_strategy(max_leaves=10):
    consts = st.integers(0, 6).map(lambda n: Const(float(n)))
    atoms = st.one_of(consts, st.sampled_from([Var("th", 0), Var("ph", 1)]))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Call, st.sampled_from(FUNCTIONS), children),
            st.builds(BinOp, st.sampled_from(list("+-*/^")), children, children),
        )

    return st.recursive(atoms, extend, max_leaves=max_leaves)


# ------------------------------------------------------------------ parsing


def test_pinned_ast_shapes():
    got = parse("sin(th)^2", ("th", "ph"))
    assert got == BinOp("^", Call("sin", Var("th", 0)), Const(2.0))
    got = parse("2*pi - th", ("th",))
    assert got == BinOp("-", BinOp("*", Const(2.0), Const(math.pi)), Var("th", 0))
    assert parse("-th^2", ("th",)) == Neg(BinOp("^", Var("th", 0), Const(2.0)))
    assert parse("-th*ph", ("th", "ph")) == BinOp("*", Neg(Var("th", 0)), Var("ph", 1))
    assert parse("th^ph^2", ("th", "ph")) == BinOp(
        "^", Var("th", 0), BinOp("^", Var("ph", 1), Const(2.0))
    )
    got = parse_integrand("r*lap(f) - ric(gradf, xi) + norm2_hess(th^2)", ("th", "ph"))
    assert got == BinOp(
        "+",
        BinOp("-", BinOp("*", Geo("r"), Geo("lap", (Geo("f"),))),
              Geo("ric", ("gradf", "xi"))),
        Geo("norm2_hess", (BinOp("^", Var("th", 0), Const(2.0)),)),
    )


def test_spans_cover_source():
    node = parse("sin(th)", ("th",))
    assert node.span == (0, 7)
    assert node.arg.span == (4, 6)
    node = parse(" 1 + th ", ("th",))
    assert node.span == (1, 7)


@pytest.mark.parametrize(
    "source,offset",
    [
        ("1 + ", 4),
        ("(1", 2),
        ("1 2", 2),
        ("sin(th, th)", 6),
        ("foo(th)", 0),
        ("sin + 1", 0),
        ("bogus", 0),
        ("1 $ 2", 2),
        ("r", 0),
        ("lap(th)", 0),
        ("1e308*10", 0),
        ("2 - 1e308/1e-10", 4),
        ("1 + 0*(1e308*10)", 7),
        ("1e400", 0),
        ("(-8)^(1/3)", 1),
        ("0^(-1)", 0),
        ("10^400", 0),
    ],
)
def test_error_offsets(source, offset):
    # A constant that overflows fails when it is evaluated, at its offset.
    with pytest.raises(ExprError) as info:
        eval_number(parse(source, ("th",)))
    assert info.value.offset == offset


@pytest.mark.parametrize(
    "source,offset",
    [
        ("gradf", 0),
        ("lap(r)", 4),
        ("lap(2*f)", 4),
        ("ric(gradr)", 9),
        ("ric(gradr, q)", 11),
        ("g(gradf,gradf,xi)", 13),
    ],
)
def test_integrand_error_offsets(source, offset):
    with pytest.raises(ExprError) as info:
        parse_integrand(source, ("th", "ph"))
    assert info.value.offset == offset


def test_non_ascii_rejected():
    with pytest.raises(ExprError) as info:
        parse("θ + 1", ("th",))
    assert info.value.offset == 0


def test_bad_coordinate_names():
    with pytest.raises(ValueError):
        parse("1", ("th", "th"))
    with pytest.raises(ValueError):
        parse("1", ("pi",))
    with pytest.raises(ValueError):
        parse("1", ("sin",))
    with pytest.raises(ValueError):
        parse("1", ("2bad",))
    assert parse("r", ("r",)) == Var("r", 0)
    with pytest.raises(ValueError):
        parse_integrand("1", ("r",))


# --------------------------------------------------------------- evaluation


def test_constant_expressions():
    assert eval_number(parse("2*pi")) == pytest.approx(2 * math.pi, abs=0, rel=1e-15)
    assert eval_number(parse("pi/2 + 1")) == pytest.approx(math.pi / 2 + 1)
    assert eval_number(parse("2^-2")) == 0.25
    with pytest.raises(ExprError):
        eval_number(parse("th", ("th",)))
    with pytest.raises(ExprError):
        eval_number(parse("log(0 - 1)"))
    with pytest.raises(ExprError):
        eval_number(parse("1/0"))


def test_linear_expression_value():
    node = parse("2*pi - th", ("th",))
    j = eval_jet(node, np.array([math.pi]))
    assert j.value == pytest.approx(math.pi)
    assert j.derivative(1)[0] == -1.0


def test_sin_squared_partials_at_half_pi():
    j = eval_jet(parse("sin(th)^2", ("th",)), np.array([math.pi / 2]))
    assert j.value == pytest.approx(1.0, abs=1e-14)
    assert j.derivative(1)[0] == pytest.approx(0.0, abs=1e-14)
    assert j.derivative(2)[0, 0] == pytest.approx(-2.0, abs=1e-13)
    assert j.derivative(3)[0, 0, 0] == pytest.approx(0.0, abs=1e-13)


def test_product_of_coordinates():
    j = eval_jet(parse("th*ph", ("th", "ph")), np.array([2.0, 3.0]))
    assert j.value == 6.0
    assert np.allclose(j.derivative(1), [3.0, 2.0])
    assert np.allclose(j.derivative(2), [[0.0, 1.0], [1.0, 0.0]])


def test_exp_sin_closed_form_derivatives():
    # Hand-differentiated: f = e^{sin t}, f' = c f, f'' = (c^2 - s) f,
    # f''' = (c^3 - 3 s c - c) f with s = sin t, c = cos t.
    for t in (0.3, 1.1, 2.7):
        j = eval_jet(parse("exp(sin(th))", ("th",)), np.array([t]))
        s, c, f = math.sin(t), math.cos(t), math.exp(math.sin(t))
        assert j.value == pytest.approx(f, rel=1e-14)
        assert j.derivative(1)[0] == pytest.approx(c * f, rel=1e-13)
        assert j.derivative(2)[0, 0] == pytest.approx((c * c - s) * f, rel=1e-12, abs=1e-12)
        assert j.derivative(3)[0, 0, 0] == pytest.approx(
            (c**3 - 3 * s * c - c) * f, rel=1e-12, abs=1e-12
        )


def test_power_dispatch():
    x = np.array([1.7])
    assert eval_jet(parse("th^-2", ("th",)), x).value == pytest.approx(1.7**-2)
    assert eval_jet(parse("th^0.5", ("th",)), x).value == pytest.approx(math.sqrt(1.7))
    grid = np.array([[0.8, 1.3]])
    j = eval_jet(parse("th^ph", ("th", "ph")), grid)
    assert j.value[0] == pytest.approx(0.8**1.3, rel=1e-13)
    j = eval_jet(parse("2^th", ("th", "ph")), grid)
    assert j.value[0] == pytest.approx(2**0.8, rel=1e-13)
    assert j.derivative(1)[0, 0] == pytest.approx(math.log(2) * 2**0.8, rel=1e-12)
    with pytest.raises(ExprError):
        eval_jet(parse("(0 - 2)^th", ("th",)), np.array([1.0]))


def test_batched_evaluation_matches_pointwise():
    node = parse("sin(th)*cos(ph) + th/ph", ("th", "ph"))
    pts = np.array([[0.4, 1.0], [1.2, 2.0], [2.2, 0.7]])
    j = eval_jet(node, pts)
    for k, (t, p) in enumerate(pts):
        assert j.value[k] == pytest.approx(peval(node, (t, p)), rel=1e-14)


def test_evaluate_requires_jets():
    with pytest.raises(ValueError):
        evaluate(parse("1"), [])
    x = np.array([0.5, 0.25])
    jets = [seed(2, x, i) for i in range(2)]
    out = evaluate(parse("2*pi", ("th", "ph")), jets)
    assert out.value == pytest.approx(2 * math.pi)
    assert np.allclose(out.derivative(1), 0.0)


def test_domain_error_carries_node_index():
    node = parse("log(th)", ("th",))
    pts = np.array([[0.5], [-0.5], [1.5]])
    with pytest.raises(JetDomainError) as info:
        eval_jet(node, pts)
    assert info.value.index == 1


# ------------------------------------------------------------ random trees


@given(ast_strategy(max_leaves=6), st.floats(0.3, 2.5), st.floats(0.3, 2.5))
def test_value_matches_pointwise_oracle(node, t, p):
    try:
        want = peval(node, (t, p))
    except (ValueError, ZeroDivisionError, OverflowError):
        return
    if not math.isfinite(want) or abs(want) > 1e12:
        return
    try:
        j = eval_jet(node, np.array([t, p]))
    except (ExprError, JetDomainError):
        # The jet path refuses some points the pointwise oracle survives,
        # for example sqrt at an isolated zero of a non-constant argument.
        return
    assert j.value == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(ast_strategy(max_leaves=6), st.floats(0.3, 2.5), st.floats(0.3, 2.5))
def test_values_match_jet_values(node, t, p):
    x = np.array([t, p])
    try:
        j = eval_jet(node, x)
    except (ExprError, JetDomainError):
        return
    # The branches round differently (a jet divides through a reciprocal and
    # raises to a non-integer power as exp(c log a)), so they agree relative
    # to the value's scale plus its sensitivity to the coordinates.
    scale = max(1.0, abs(j.value)) + np.abs(j.derivative(1)) @ x
    if not np.isfinite(scale):
        return
    assert abs(eval_values(node, x) - j.value) <= 1e-12 * scale


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
def test_parser_totality(source):
    try:
        parse(source, ("th", "ph"))
    except ExprError:
        pass

"""Small expression language for metric entries, potentials and integrands.

Grammar (ASCII source only)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

"^" is right associative and binds tighter than unary minus, which binds
tighter than "*" and "/".  The built-in constant is ``pi`` and the built-in
functions are sin, cos, exp, log and sqrt, all unary.  Every error carries a
character offset into the source string.

``parse_integrand`` reads the same grammar plus the geometric names of an
integrand: the scalars ``r`` and ``f``, the pairings ``ric(v, w)`` and
``g(v, w)`` over the vectors gradf, gradr and xi, and ``lap(s)`` and
``norm2_hess(s)`` of ``f`` or of an expression in the coordinates.  They
become ``Geo`` nodes, and like ``pi`` they may not be coordinate names.

One tree walk evaluates every expression, over floats, numpy arrays or
truncated Taylor jets; its ``leaf`` callback supplies coordinates and ``Geo``
nodes.  Over jets, one evaluation yields the value together with all partial
derivatives up to the truncation order at every grid node at once.
"""

import math
import re
from typing import Tuple

import numpy as np

from .jets import Jet, apply_unary, constant, exp as jet_exp
from .jets import log as jet_log, powc
from .records import record

# Unary functions; math, numpy and jets each have one of every name.
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

# Reserved names of the integrand grammar.
SCALARS = ("r", "f")
VECTORS = ("gradf", "gradr", "xi")
PAIRINGS = ("ric", "g")
SCALAR_OPS = ("lap", "norm2_hess")
INTEGRAND_NAMES = SCALARS + VECTORS + PAIRINGS + SCALAR_OPS


class ExprError(ValueError):
    """Parse or evaluation failure, with a character offset into the source."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


@record(uncompared=("span",))
class Const:
    value: float
    span: Tuple[int, int] = (0, 0)


@record(uncompared=("span",))
class Var:
    name: str
    index: int
    span: Tuple[int, int] = (0, 0)


@record(uncompared=("span",))
class Neg:
    arg: object
    span: Tuple[int, int] = (0, 0)


@record(uncompared=("span",))
class Call:
    func: str
    arg: object
    span: Tuple[int, int] = (0, 0)


@record(uncompared=("span",))
class BinOp:
    op: str
    left: object
    right: object
    span: Tuple[int, int] = (0, 0)


@record(uncompared=("span",))
class Geo:
    """Geometric quantity of an integrand.  ``name`` is one of SCALARS (no
    args), of PAIRINGS (args: two names of VECTORS) or of SCALAR_OPS (args:
    ``Geo("f")`` or an expression in the coordinates)."""

    name: str
    args: tuple = ()
    span: Tuple[int, int] = (0, 0)


_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(src):
    for i, ch in enumerate(src):
        if ord(ch) > 127:
            raise ExprError(f"non-ascii character {ch!r}", i)
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        m = _NUMBER.match(src, i)
        if m is not None:
            toks.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(src, i)
        if m is not None:
            toks.append(("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            toks.append(("op", ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, toks, coords, integrand):
        self.toks = toks
        self.k = 0
        self.coords = {name: i for i, name in enumerate(coords)}
        self.integrand = integrand

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def eat_op(self, which):
        kind, text, pos = self.peek()
        if kind == "op" and text == which:
            return self.advance()
        raise ExprError(f"expected {which!r}", pos)

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right = self.term()
                node = BinOp(text, node, right, (node.span[0], right.span[1]))
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right = self.factor()
                node = BinOp(text, node, right, (node.span[0], right.span[1]))
            else:
                return node

    def factor(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            arg = self.factor()
            return Neg(arg, (pos, arg.span[1]))
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            expo = self.factor()
            return BinOp("^", base, expo, (base.span[0], expo.span[1]))
        return base

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprError(f"number {text} overflows", pos)
            return Const(value, (pos, pos + len(text)))
        if kind == "name":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                return self.call(text, pos)
            if text == "pi":
                return Const(math.pi, (pos, pos + 2))
            if text in self.coords:
                return Var(text, self.coords[text], (pos, pos + len(text)))
            if self.integrand and text in SCALARS:
                return Geo(text, (), (pos, pos + len(text)))
            if self.integrand and text in VECTORS:
                raise ExprError(
                    f"{text} is only meaningful as an argument of ric or g", pos
                )
            if text in FUNCTIONS or (self.integrand and text in INTEGRAND_NAMES):
                raise ExprError(f"function {text!r} needs an argument list", pos)
            raise ExprError(f"unknown name {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.eat_op(")")
            return node
        raise ExprError("expected a number, name or parenthesized expression", pos)

    def call(self, name, pos):
        self.advance()
        if self.integrand and name in PAIRINGS:
            first = self.vector(name)
            kind, text, comma = self.peek()
            if not (kind == "op" and text == ","):
                raise ExprError(f"{name} takes two arguments", comma)
            self.advance()
            args = (first, self.vector(name))
            count = "two arguments"
        elif name in FUNCTIONS or (self.integrand and name in SCALAR_OPS):
            arg = self.expr()
            if name in SCALAR_OPS and arg != Geo("f") and _has_geo(arg):
                raise ExprError(
                    f"{name} takes f or an expression in the coordinates",
                    arg.span[0],
                )
            args = (arg,)
            count = "a single argument"
        else:
            raise ExprError(f"unknown function {name!r}", pos)
        kind, text, comma = self.peek()
        if kind == "op" and text == ",":
            raise ExprError(f"{name} takes {count}", comma)
        span = (pos, self.eat_op(")")[2] + 1)
        if name in FUNCTIONS:
            return Call(name, arg, span)
        return Geo(name, args, span)

    def vector(self, func):
        kind, text, pos = self.advance()
        if kind != "name" or text not in VECTORS:
            raise ExprError(
                f"{func} arguments must be one of {', '.join(VECTORS)}", pos
            )
        return text


def _has_geo(node):
    if isinstance(node, Geo):
        return True
    if isinstance(node, (Neg, Call)):
        return _has_geo(node.arg)
    if isinstance(node, BinOp):
        return _has_geo(node.left) or _has_geo(node.right)
    return False


def _parse(source, coords, integrand):
    coords = tuple(coords)
    reserved = INTEGRAND_NAMES if integrand else ()
    if len(set(coords)) != len(coords):
        raise ValueError(f"duplicate coordinate names in {coords!r}")
    for name in coords:
        if _NAME.fullmatch(name) is None:
            raise ValueError(f"coordinate name {name!r} is not an identifier")
        if name == "pi" or name in FUNCTIONS or name in reserved:
            raise ValueError(f"coordinate name {name!r} shadows a builtin")
    parser = _Parser(_tokenize(source), coords, integrand)
    node = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ExprError("unexpected trailing input", pos)
    return node


def parse(source, coords=()):
    """Parse ``source`` against the coordinate names ``coords``.

    Raises ExprError with a character offset on any lexical or syntax
    problem; raises ValueError if the coordinate names themselves are
    unusable (duplicates, reserved words, non-identifiers).
    """
    return _parse(source, coords, integrand=False)


def parse_integrand(source, coords):
    """Parse an integrand: the grammar of ``parse`` plus the geometric names
    of INTEGRAND_NAMES, which become ``Geo`` nodes.

    Misplaced names, bad arguments and wrong argument counts raise ExprError
    with a character offset; a coordinate named like one of INTEGRAND_NAMES
    raises ValueError.
    """
    return _parse(source, coords, integrand=True)


def _eval(node, leaf):
    """Value of ``node`` over floats, numpy arrays or jets; ``leaf`` returns
    the value of each Var and Geo node."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Neg):
        return -_eval(node.arg, leaf)
    if isinstance(node, Call):
        return _unary(node, _eval(node.arg, leaf))
    if not isinstance(node, BinOp):
        return leaf(node)
    left = _eval(node.left, leaf)
    right = _eval(node.right, leaf)
    op = node.op
    if op == "^":
        return _power(left, right, node.span[0])
    try:
        if op == "+":
            out = left + right
        elif op == "-":
            out = left - right
        elif op == "*":
            out = left * right
        else:
            out = left / right
    except ZeroDivisionError:
        raise ExprError("division by zero", node.span[0]) from None
    # Only constants are Python floats; arrays and jets may hold nan or inf.
    if type(out) is float and not math.isfinite(out):
        raise ExprError("constant overflows", node.span[0])
    return out


_ARRAY = (np.ndarray, np.generic)


def _unary(node, a):
    if isinstance(a, Jet):
        return apply_unary(node.func, a)
    if isinstance(a, _ARRAY):
        return getattr(np, node.func)(a)
    try:
        return getattr(math, node.func)(a)
    except (ValueError, OverflowError):
        raise ExprError(
            f"{node.func} of the constant {a!r} is undefined or overflows",
            node.span[0],
        ) from None


def _power(base, expo, offset):
    if isinstance(expo, Jet):
        # Variable exponent: base^e = exp(e log base).
        if isinstance(base, Jet):
            return jet_exp(jet_log(base) * expo)
        if base <= 0.0:
            raise ExprError("base of a variable power must be positive", offset)
        return jet_exp(expo * math.log(base))
    if isinstance(base, Jet):
        return powc(base, expo)
    if isinstance(base, _ARRAY) or isinstance(expo, _ARRAY):
        return base**expo
    if base < 0.0 and expo != int(expo):
        raise ExprError("fractional power of a negative constant", offset)
    try:
        return base**expo
    except ZeroDivisionError:
        raise ExprError("zero raised to a negative power", offset) from None
    except OverflowError:
        raise ExprError("constant power overflows", offset) from None


def _no_value(what):
    """Leaf for a context in which the names it receives have no value."""

    def leaf(node):
        raise ExprError(f"{node.name!r} not allowed in {what}", node.span[0])

    return leaf


def _coordinates(values, other):
    """Leaf that reads each Var from ``values`` and hands Geo nodes to
    ``other``."""

    def leaf(node):
        if isinstance(node, Var):
            return values[node.index]
        return other(node)

    return leaf


def evaluate(node, jets):
    """Evaluate over coordinate jets (one per coordinate), whose batch shapes
    broadcast against each other.  The result's batch broadcasts the
    batches of the coordinates ``node`` uses; a constant gets size-1 batch
    axes, as many as the coordinate jets have."""
    jets = list(jets)
    if not jets:
        raise ValueError("evaluate needs at least one coordinate jet")
    out = _eval(node, _coordinates(jets, _no_value("a jet expression")))
    if isinstance(out, Jet):
        return out
    ref = jets[0]
    return constant(ref.dim, np.full((1,) * ref.value.ndim, out), ref.order)


def eval_number(node):
    """Evaluate a constant expression (no coordinates allowed) to a float."""
    return _eval(node, _no_value("a constant expression"))


def eval_values(node, x, leaf=None):
    """Plain values at points ``x`` of shape (..., dim), broadcast to the
    batch shape.  ``leaf`` returns the value of each Geo node of an
    integrand.  At a point outside a function's domain the value is nan or
    inf; only a constant subexpression out of its domain raises ExprError."""
    x = np.asarray(x, dtype=float)
    columns = [x[..., i] for i in range(x.shape[-1])]
    values = _coordinates(columns, leaf or _no_value("a coordinate expression"))
    with np.errstate(all="ignore"):
        out = _eval(node, values)
    return np.broadcast_to(np.asarray(out, dtype=float), x.shape[:-1])

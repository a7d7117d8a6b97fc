"""Truncated multivariate Taylor arithmetic ("jets").

A jet stores the Taylor coefficients c_alpha = d^alpha f / alpha! of a scalar
quantity for all multi-indices alpha with |alpha| <= order, in up to four
variables.  Arithmetic on jets (sums, products, quotients, compositions with
the elementary functions) propagates derivatives exactly, so downstream code
never falls back on finite differencing.

The standard order is 3: scalar curvature gradients and tensor divergences
consume third derivatives of the metric and nothing in the check suite needs
a fourth derivative of it.  Order 4 is supported as well because the
divergence of a twice Lie-dragged metric along a gradient field reaches the
fourth derivative of the potential; only scalar potentials are ever
evaluated at that order.

Coefficients live in a dense array of shape (size, *batch): the first axis
enumerates multi-indices in a fixed degree-major order (see
`multi_indices`) and the axes behind it are batch axes, so a single jet
object can carry the expansion of a field at every grid node at once.  Each
coefficient is then one contiguous row over the batch, and the truncated
product is, for each output coefficient k, one sum of row products over the
pairs (i, j) with alpha_i + alpha_j = alpha_k (a Cauchy convolution;
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).
Batch axes are right-aligned behind the coefficient axis: jets whose batch
shapes differ, an unbatched jet or a constant included, broadcast as numpy
arrays of those batch shapes would.  Each jet carries its support, the
bitmask of the coordinates it may depend on: a seed has its own bit, a
constant none, a sum or product the union of its operands', and a jet built
from raw coefficients every bit.  A row whose multi-index leaves the support
is an exact zero, so a product skips the pairs outside its operands'
supports (most, for a tensor-mesh term such as `cos(eta)*sin(x2)`), and
every nonzero coefficient keeps its bits.

Derivatives are read back through one rule, d^alpha f = alpha! c_alpha:
`Jet.derivative(k)` gathers the coefficient of every index tuple's
multi-index and scales it by alpha!, giving the fully symmetric k-th
derivative tensor with its k axes after the batch axes (k = 0 is the value).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, product

import numpy as np

MAX_DIM = 4
DEFAULT_ORDER = 3


class JetDomainError(ValueError):
    """An elementary function was evaluated outside its domain.

    `index` is the flat index of the first offending entry in C order of
    the jet's batch shape `shape` (0 and () for an unbatched jet), and
    `value` the offending input value.
    """

    def __init__(self, message, index=None, value=None, shape=None):
        super().__init__(message)
        self.index = index
        self.value = value
        self.shape = shape


def multi_indices(dim, order=DEFAULT_ORDER):
    """All exponent tuples with |alpha| <= order, degree-major then lexicographic."""
    out = []
    for deg in range(order + 1):
        for combo in combinations_with_replacement(range(dim), deg):
            alpha = [0] * dim
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


class _Tables:
    """Precomputed index bookkeeping for one (dim, order) pair."""

    def __init__(self, dim, order):
        self.alphas = multi_indices(dim, order)
        self.size = len(self.alphas)
        self.index = {a: k for k, a in enumerate(self.alphas)}

        # For each output index k, the row pairs (i, j) with
        # alpha_i + alpha_j = alpha_k, i ascending: coefficient k of a
        # product is the sum of a[i] * b[j] over them.
        self.mul_pairs = [[] for _ in self.alphas]
        for i, ai in enumerate(self.alphas):
            for j, aj in enumerate(self.alphas):
                if sum(ai) + sum(aj) <= order:
                    k = self.index[tuple(x + y for x, y in zip(ai, aj))]
                    self.mul_pairs[k].append((i, j))
        self.bits = [sum(1 << t for t, p in enumerate(a) if p) for a in self.alphas]
        self.support_pairs = {}

        # d^k f = k-th derivative tensor = coeffs[pos] * fac, where each
        # entry's multi-index alpha sits at pos and fac = alpha!.
        self.derivs = []
        for k in range(order + 1):
            pos, fac = [], []
            for axes in product(range(dim), repeat=k):
                alpha = tuple(axes.count(t) for t in range(dim))
                pos.append(self.index[alpha])
                fac.append(math.prod(map(math.factorial, alpha)))
            shape = (dim,) * k
            self.derivs.append((np.reshape(pos, shape),
                                np.reshape(fac, shape).astype(float)))

    def pairs(self, sa, sb):
        """(k, pairs) for each row k of a product of jets with supports sa and
        sb that keeps some of mul_pairs[k] inside them (bits[i] has bit t when
        alpha_i holds x_t), and the rows that keep none."""
        if (sa, sb) not in self.support_pairs:
            rows = [[(i, j) for i, j in pairs
                     if not (self.bits[i] & ~sa or self.bits[j] & ~sb)]
                    for pairs in self.mul_pairs]
            self.support_pairs[sa, sb] = ([(k, p) for k, p in enumerate(rows) if p],
                                          [k for k, p in enumerate(rows) if not p])
        return self.support_pairs[sa, sb]


_TABLES: dict[tuple[int, int], _Tables] = {}


def _tables(dim, order):
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")
    if order not in (3, 4):
        raise ValueError(f"jet order must be 3 or 4, got {order}")
    key = (dim, order)
    if key not in _TABLES:
        _TABLES[key] = _Tables(dim, order)
    return _TABLES[key]


class Jet:
    """Dense truncated Taylor expansion; arithmetic closes over the truncation.

    `coeffs` has shape (size, *batch) with the first axis indexed by
    `multi_indices(dim, order)`.  Batch axes are right-aligned behind it and
    broadcast through every operation.
    """

    __slots__ = ("dim", "order", "coeffs", "support")

    def __init__(self, dim, coeffs, order=DEFAULT_ORDER):
        tab = _tables(dim, order)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim == 0 or coeffs.shape[0] != tab.size:
            raise ValueError(
                f"expected {tab.size} coefficients for dim {dim} order {order}, "
                f"got shape {coeffs.shape}"
            )
        self.dim = dim
        self.order = order
        self.coeffs = coeffs
        self.support = (1 << dim) - 1

    # -- constructors ------------------------------------------------------

    @property
    def _tab(self):
        return _tables(self.dim, self.order)

    @property
    def value(self):
        return self.coeffs[0]

    def _new(self, coeffs, support):
        out = Jet(self.dim, coeffs, self.order)
        out.support = support
        return out

    # -- derivative extraction ---------------------------------------------

    def derivative(self, k):
        """d^k f as a fully symmetric (..., dim, ..., dim) array with k
        derivative axes after the batch axes; k = 0 gives the value.  The
        result is a transposed view of a new array, not a contiguous one."""
        if not 0 <= k <= self.order:
            raise ValueError(f"an order-{self.order} jet has no derivative {k}")
        pos, fac = self._tab.derivs[k]
        nb = self.coeffs.ndim - 1
        d = self.coeffs[pos] * fac.reshape(fac.shape + (1,) * nb)
        return np.moveaxis(d, range(k), range(nb, nb + k))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim or other.order != self.order:
                raise ValueError("jet dim/order mismatch")
            return other
        if np.isscalar(other) or isinstance(other, np.ndarray):
            return constant(self.dim, other, self.order)
        raise TypeError(f"cannot combine a jet with {type(other).__name__}")

    def _aligned(self, other):
        """Both coefficient arrays with as many batch axes, the shorter
        batch padded on the left (views, no copies), and the other jet."""
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        nd = max(a.ndim, b.ndim)
        return (a.reshape(a.shape[:1] + (1,) * (nd - a.ndim) + a.shape[1:]),
                b.reshape(b.shape[:1] + (1,) * (nd - b.ndim) + b.shape[1:]),
                other)

    def __add__(self, other):
        a, b, other = self._aligned(other)
        return self._new(a + b, self.support | other.support)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, other = self._aligned(other)
        return self._new(a - b, self.support | other.support)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other.__sub__(self)

    def __neg__(self):
        return self._new(-self.coeffs, self.support)

    def __mul__(self, other):
        if np.isscalar(other) or isinstance(other, np.ndarray):
            # A constant has only a value row, so the product scales every
            # row; the batches still broadcast right-aligned.
            c = np.asarray(other, dtype=float)
            a = self.coeffs
            a = a.reshape(a.shape[:1] + (1,) * (c.ndim - a.ndim + 1) + a.shape[1:])
            return self._new(a * c, self.support)
        a, b, other = self._aligned(other)
        rows, zeros = self._tab.pairs(self.support, other.support)
        out = np.empty((a.shape[0],) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
        out[zeros] = 0.0  # the skipped products are exact zeros
        tmp = np.empty(out.shape[1:])
        for k, ((i, j), *rest) in rows:
            row = out[k, ...]
            np.multiply(a[i, ...], b[j, ...], out=row)
            for i, j in rest:
                np.multiply(a[i, ...], b[j, ...], out=tmp)
                np.add(row, tmp, out=row)
        return self._new(out, self.support | other.support)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other * _reciprocal(self)

    def compose(self, derivs):
        """Faa di Bruno for phi(f): derivs = [phi(v), phi'(v), ...] at v = value.

        Exact at the truncation order because the zero-constant part of the
        jet is nilpotent: its k-th power has no terms below degree k, so
        only the rows of degree k and up take its term.
        """
        if len(derivs) != self.order + 1:
            raise ValueError("need order+1 derivative values for composition")
        ubar = self.coeffs.copy()
        ubar[0] = 0.0
        ubar = self._new(ubar, self.support)
        out = np.zeros_like(self.coeffs)
        out[0] = derivs[0]
        term = np.empty_like(out)
        power = ubar
        scale = 1.0
        for k in range(1, self.order + 1):
            scale /= k
            rows = slice(math.comb(self.dim + k - 1, self.dim), None)
            np.multiply(derivs[k] * scale, power.coeffs[rows], out=term[rows])
            out[rows] += term[rows]
            if k < self.order:
                power = power * ubar
        return self._new(out, self.support)


def seed(dim, x, i, order=DEFAULT_ORDER):
    """Jet of the coordinate function x_i at the point(s) x.

    x has shape (..., dim); the result carries the same batch axes.
    """
    tab = _tables(dim, order)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"point has {x.shape[-1]} components, chart has {dim}")
    if not 0 <= i < dim:
        raise ValueError(f"coordinate index {i} out of range for dim {dim}")
    coeffs = np.zeros((tab.size,) + x.shape[:-1])
    coeffs[0] = x[..., i]
    coeffs[tab.derivs[1][0][i]] = 1.0
    jet = Jet(dim, coeffs, order)
    jet.support = 1 << i
    return jet


def constant(dim, value, order=DEFAULT_ORDER):
    tab = _tables(dim, order)
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((tab.size,) + value.shape)
    coeffs[0] = value
    jet = Jet(dim, coeffs, order)
    jet.support = 0
    return jet


def _check_domain(bad, v, message):
    """Raise JetDomainError at the first batch entry where ``bad`` holds."""
    if np.any(bad):
        i = int(np.flatnonzero(np.ravel(bad))[0])
        raise JetDomainError(message, index=i, value=float(np.ravel(v)[i]),
                             shape=np.shape(bad))


def check_finite(a):
    """Raise JetDomainError at the first batch entry whose value or a
    derivative is nan or infinite."""
    _check_domain(~np.isfinite(a.coeffs).all(axis=0), a.value,
                  "non-finite value or derivative")


def _reciprocal(a):
    v = a.value
    _check_domain(v == 0.0, v, "division by a jet with zero value")
    inv = 1.0 / v
    derivs = [inv]
    for k in range(1, a.order + 1):
        derivs.append(derivs[-1] * (-k) * inv)
    return a.compose(derivs)


def sin(a):
    s, c = np.sin(a.value), np.cos(a.value)
    table = [s, c, -s, -c]
    return a.compose([table[k % 4] for k in range(a.order + 1)])


def cos(a):
    s, c = np.sin(a.value), np.cos(a.value)
    table = [c, -s, -c, s]
    return a.compose([table[k % 4] for k in range(a.order + 1)])


def exp(a):
    e = np.exp(a.value)
    return a.compose([e] * (a.order + 1))


def log(a):
    v = a.value
    _check_domain(v <= 0.0, v, "log requires a positive value")
    inv = 1.0 / v
    derivs = [np.log(v), inv]
    for k in range(2, a.order + 1):
        derivs.append(derivs[-1] * (-(k - 1)) * inv)
    return a.compose(derivs)


def sqrt(a):
    v = a.value
    _check_domain(v < 0.0, v, "sqrt requires a nonnegative value")
    nonconst = np.any(a.coeffs[1:] != 0.0, axis=0)
    _check_domain((v == 0.0) & nonconst, v,
                  "sqrt of a vanishing non-constant jet has no Taylor expansion")
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(v)
        derivs = [root]
        coeff = 0.5
        for k in range(1, a.order + 1):
            derivs.append(np.where(v > 0.0, coeff * root / v**k, 0.0))
            coeff *= 0.5 - k
    return a.compose(derivs)


def powc(a, expo):
    """a**c for a constant exponent.

    Integer exponents go through repeated squaring and are valid wherever
    the base is (negative integers need a nonzero value).  The highest bit
    multiplies the last square into the result, so a square that is not
    finite raises at once what ``check_finite`` would raise at the end.
    Other exponents use exp(c log a) and need a positive value.
    """
    if isinstance(expo, Jet):
        raise TypeError("exponent must be a constant, not a jet")
    c = float(expo)
    if c == int(c):
        n = int(c)
        if n < 0:
            return _reciprocal(powc(a, -n))
        out = constant(a.dim, np.ones(a.value.shape), a.order)
        base = a
        while n:
            if n & 1:
                out = out * base
            if n > 1:
                base = base * base
                check_finite(base)
            n >>= 1
        return out
    return exp(log(a) * c)


_UNARY = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}


def apply_unary(op, a):
    """Dispatch an elementary function by name."""
    if op not in _UNARY:
        raise ValueError(f"unknown unary operation {op!r}")
    return _UNARY[op](a)

"""Charts, metric frames and the tensor calculus used by the soliton checks.

A chart is a box in coordinates, some axes periodic, carrying a metric given
entrywise as expressions.  Everything numerical happens on batches of points:
an array of shape (..., n) of coordinates goes in, and every derived tensor
comes back with the same batch axes in front.

Index conventions for the arrays built here, with n the chart dimension:

* ``dg[..., a, i, j]``        is  d_a g_ij, and second and third metric
  derivatives prepend further derivative axes in the same way.
* ``Gamma[..., k, i, j]``     is  Gamma^k_ij, symmetric in (i, j).
* ``dGamma[..., a, k, i, j]`` is  d_a Gamma^k_ij.
* ``Ric[..., i, j]``          is  the Ricci tensor, ``r`` its g-trace.
* For vector fields, ``xi[..., a]`` are contravariant components and
  ``dxi[..., i, a]`` is d_i xi^a; higher derivatives prepend axes likewise.

Scalar curvature follows the sign convention that makes the unit round
two-sphere have r = 2.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .expr import evaluate, parse
from .jets import JetDomainError, seed

__all__ = [
    "GeometryError",
    "Chart",
    "chart",
    "ScalarField",
    "scalar_field",
    "VectorField",
    "vector_field",
    "ScalarJets",
    "VectorJets",
    "PointFrame",
    "frame",
    "scalar_jets",
    "vector_jets",
    "hessian",
    "hessian_jet",
    "laplacian",
    "gradient_vector_jets",
    "lie_sym2",
    "lie_sym2_jet",
    "lie_sym2_jet2",
    "lie_metric_jets",
    "cov_accel",
    "div_vector",
    "div_sym2",
    "trace_g",
    "trace_g_jet",
    "norm2_sym2",
    "norm2_covec",
    "raise_covec",
    "ric_vv",
    "nabla_vec_norm2",
]


class GeometryError(ValueError):
    pass


# --------------------------------------------------------------------- charts


@dataclass(frozen=True)
class Chart:
    """A coordinate box with a metric; frozen so frames can be cached on it."""

    name: str
    coords: Tuple[str, ...]
    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    periodic: Tuple[bool, ...]
    metric: tuple  # n rows of n parsed expressions
    grid_hint: Tuple[int, ...]
    exclusion_margin: float = 0.0

    @property
    def dim(self):
        return len(self.coords)


def chart(name, coords, lo, hi, periodic, metric_texts, grid_hint=None,
          exclusion_margin=0.0):
    """Parse and validate a chart definition.

    ``metric_texts`` is a full n x n table of expression strings; symmetry
    and positivity are checked numerically when a frame is built, since the
    two sides of the diagonal may be written differently.
    """
    coords = tuple(coords)
    n = len(coords)
    if not 1 <= n <= 4:
        raise GeometryError(f"chart {name!r} has dimension {n}, supported is 1..4")
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    periodic = tuple(bool(p) for p in periodic)
    if not (len(lo) == len(hi) == len(periodic) == n):
        raise GeometryError(f"chart {name!r}: bounds and periodic flags must have length {n}")
    for i in range(n):
        if not lo[i] < hi[i]:
            raise GeometryError(
                f"chart {name!r}: empty range [{lo[i]}, {hi[i]}] for {coords[i]!r}"
            )
    rows = tuple(tuple(row) for row in metric_texts)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise GeometryError(f"chart {name!r}: metric must be a {n}x{n} table")
    metric = tuple(
        tuple(parse(entry, coords) for entry in row) for row in rows
    )
    if grid_hint is None:
        grid_hint = tuple(128 if periodic[i] else 64 for i in range(n))
    grid_hint = tuple(int(m) for m in grid_hint)
    if len(grid_hint) != n or any(m < 8 for m in grid_hint):
        raise GeometryError(f"chart {name!r}: grid hint needs {n} counts of at least 8")
    margin = float(exclusion_margin)
    if margin < 0 or 2 * margin >= min(h - l for l, h in zip(lo, hi)):
        raise GeometryError(f"chart {name!r}: exclusion margin {margin} leaves no interior")
    return Chart(name, coords, lo, hi, periodic, metric, grid_hint, margin)


# --------------------------------------------------------------------- fields


@dataclass(frozen=True)
class ScalarField:
    chart: Chart
    source: str
    node: object


def scalar_field(ch, text):
    return ScalarField(ch, text, parse(text, ch.coords))


@dataclass(frozen=True)
class VectorField:
    """Contravariant components in chart order."""

    chart: Chart
    sources: Tuple[str, ...]
    nodes: tuple


def vector_field(ch, texts):
    texts = tuple(texts)
    if len(texts) != ch.dim:
        raise GeometryError(
            f"vector field on {ch.name!r} needs {ch.dim} components, got {len(texts)}"
        )
    return VectorField(ch, texts, tuple(parse(t, ch.coords) for t in texts))


# ----------------------------------------------------------------- field jets


@dataclass(eq=False)
class ScalarJets:
    """Partial derivatives of a scalar at a batch of points."""

    f: np.ndarray
    df: np.ndarray
    d2f: np.ndarray
    d3f: np.ndarray
    d4f: Optional[np.ndarray] = None


@dataclass(eq=False)
class VectorJets:
    """Contravariant components with derivatives; dxi[..., i, a] = d_i xi^a."""

    xi: np.ndarray
    dxi: np.ndarray
    d2xi: np.ndarray
    d3xi: Optional[np.ndarray]


def _derivatives(ch, x, nodes, order, what):
    """[value, d, d^2, ...] up to ``order`` of the expressions ``nodes`` (one
    expression or nested tuples of them) at the points x.

    The k-th array has shape batch + (n,) * k + shape(nodes): the derivative
    axes sit between the batch axes and the entry axes.  Entries are read
    out one at a time, and the outputs are allocated after the first
    evaluation, so a single expression's evaluation temporaries never meet
    them.  A point outside a function's domain raises GeometryError naming
    the grid node.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != ch.dim:
        raise GeometryError(
            f"points have {x.shape[-1]} coordinates, chart {ch.name!r} has {ch.dim}"
        )
    seeds = [seed(ch.dim, x, i, order) for i in range(ch.dim)]
    table = np.array(nodes, dtype=object)
    out = None
    for entry in np.ndindex(table.shape):
        try:
            jet = evaluate(table[entry], seeds)
        except JetDomainError as err:
            raise GeometryError(
                f"{what} not defined at {_node_label(ch, x, err.index)}: {err}"
            ) from None
        if out is None:
            out = [np.empty(x.shape[:-1] + (ch.dim,) * k + table.shape)
                   for k in range(order + 1)]
        for k, arr in enumerate(out):
            arr[(Ellipsis,) + entry] = jet.derivative(k)
    return out


def scalar_jets(field, x, order=3):
    return ScalarJets(*_derivatives(field.chart, x, field.node, order,
                                    repr(field.source)))


def vector_jets(field, x):
    return VectorJets(*_derivatives(field.chart, x, field.nodes, 3,
                                    f"vector field on {field.chart.name!r}"))


# --------------------------------------------------------------------- frames


@dataclass(eq=False)
class PointFrame:
    """Metric data and curvature at a batch of points."""

    chart: Chart
    x: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    sqrtg: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    d3g: np.ndarray
    dginv: np.ndarray
    d2ginv: np.ndarray
    Gamma: np.ndarray
    dGamma: np.ndarray
    d2Gamma: np.ndarray
    Ric: np.ndarray
    dRic: np.ndarray
    r: np.ndarray
    dr: np.ndarray


def _node_label(ch, x, flat):
    batch_shape = x.shape[:-1]
    idx = np.unravel_index(flat, batch_shape) if batch_shape else ()
    coords = x.reshape(-1, ch.dim)[flat]
    where = ", ".join(f"{nm}={v:.6g}" for nm, v in zip(ch.coords, coords))
    return f"node {tuple(int(i) for i in idx)} ({where})"


def frame(ch, x):
    """Evaluate the metric with three derivative orders and assemble curvature."""
    x = np.asarray(x, dtype=float)
    n = ch.dim
    g, dg, d2g, d3g = _derivatives(ch, x, ch.metric, 3, f"metric of {ch.name!r}")

    scale = 1.0 + float(np.max(np.abs(g)))
    skew = np.abs(g - np.swapaxes(g, -1, -2))
    if np.max(skew) > 1e-14 * scale:
        flat = int(np.argmax(skew.reshape(-1, n, n).max(axis=(1, 2))))
        i, j = np.unravel_index(np.argmax(skew.reshape(-1, n, n)[flat]), (n, n))
        raise GeometryError(
            f"metric of {ch.name!r} is not symmetric: entries [{i}][{j}] and "
            f"[{j}][{i}] differ by {skew.reshape(-1, n, n)[flat, i, j]:.3e} at "
            + _node_label(ch, x, flat)
        )
    # Average away harmless last-bit asymmetry before factorizing.
    g, dg, d2g, d3g = (0.5 * (D + np.swapaxes(D, -1, -2)) for D in (g, dg, d2g, d3g))

    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(g.reshape(-1, n, n))
        flat = int(np.argmin(eigs[:, 0]))
        raise GeometryError(
            f"metric of {ch.name!r} is not positive definite "
            f"(eigenvalue {eigs[flat, 0]:.3e}) at " + _node_label(ch, x, flat)
        ) from None
    sqrtg = np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)
    ginv = np.linalg.inv(g)

    dginv = -np.einsum("...ik,...akl,...lj->...aij", ginv, dg, ginv)
    d2ginv = -(
        np.einsum("...bik,...akl,...lj->...abij", dginv, dg, ginv)
        + np.einsum("...ik,...abkl,...lj->...abij", ginv, d2g, ginv)
        + np.einsum("...ik,...akl,...blj->...abij", ginv, dg, dginv)
    )

    # S_lij = d_i g_lj + d_j g_li - d_l g_ij and its derivatives; the
    # ellipsis carries the batch axes and any further derivative axes.
    S, dS, d2S = (
        np.einsum("...ilj->...lij", D) + np.einsum("...jli->...lij", D) - D
        for D in (dg, d2g, d3g)
    )
    Gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, S)
    dGamma = 0.5 * (
        np.einsum("...akl,...lij->...akij", dginv, S)
        + np.einsum("...kl,...alij->...akij", ginv, dS)
    )
    d2Gamma = 0.5 * (
        np.einsum("...abkl,...lij->...abkij", d2ginv, S)
        + np.einsum("...akl,...blij->...abkij", dginv, dS)
        + np.einsum("...bkl,...alij->...abkij", dginv, dS)
        + np.einsum("...kl,...ablij->...abkij", ginv, d2S)
    )

    tG = np.einsum("...kkl->...l", Gamma)
    Ric = (
        np.einsum("...kkij->...ij", dGamma)
        - np.einsum("...ikkj->...ij", dGamma)
        + np.einsum("...l,...lij->...ij", tG, Gamma)
        - np.einsum("...kil,...lkj->...ij", Gamma, Gamma)
    )
    dtG = np.einsum("...akkl->...al", dGamma)
    dRic = (
        np.einsum("...akkij->...aij", d2Gamma)
        - np.einsum("...aikkj->...aij", d2Gamma)
        + np.einsum("...al,...lij->...aij", dtG, Gamma)
        + np.einsum("...l,...alij->...aij", tG, dGamma)
        - np.einsum("...akil,...lkj->...aij", dGamma, Gamma)
        - np.einsum("...kil,...alkj->...aij", Gamma, dGamma)
    )
    r = np.einsum("...ij,...ij->...", ginv, Ric)
    dr = np.einsum("...aij,...ij->...a", dginv, Ric) + np.einsum(
        "...ij,...aij->...a", ginv, dRic
    )
    return PointFrame(
        chart=ch, x=x, g=g, ginv=ginv, sqrtg=sqrtg, dg=dg, d2g=d2g, d3g=d3g,
        dginv=dginv, d2ginv=d2ginv, Gamma=Gamma, dGamma=dGamma,
        d2Gamma=d2Gamma, Ric=Ric, dRic=dRic, r=r, dr=dr,
    )


# ----------------------------------------------------- scalar field operators


def hessian(fr, sj):
    return sj.d2f - np.einsum("...kij,...k->...ij", fr.Gamma, sj.df)


def hessian_jet(fr, sj):
    """First derivatives d_a Hess(f)_ij of the coordinate Hessian components."""
    return (
        sj.d3f
        - np.einsum("...akij,...k->...aij", fr.dGamma, sj.df)
        - np.einsum("...kij,...ak->...aij", fr.Gamma, sj.d2f)
    )


def laplacian(fr, sj):
    return trace_g(fr, hessian(fr, sj))


def gradient_vector_jets(fr, sj):
    """Derivatives of grad f; d3xi is None unless sj carries d4f.

    The third derivative of g^{ab} d_b f contains d^4 f, which is why scalar
    fields whose iterated Lie derivative is differentiated are evaluated one
    order deeper than the metric.

    The contractions of d2xi and d3xi pass optimize=True.  The term
    d_i d_j d_k g^{ab} d_b f of d3xi is never formed from a five-index third
    inverse-metric derivative: each of the nine product-rule terms of
    d^3 (-g^{-1} dg g^{-1}) carries df as a fourth operand, and the
    contraction path numpy picks contracts g^{-1} df and the other small
    factors first.  The two-operand terms run as batched matrix products,
    several times faster on whole grids than einsum's default loop.
    """
    ginv, dginv, d2ginv = fr.ginv, fr.dginv, fr.d2ginv
    dg, d2g, d3g = fr.dg, fr.d2g, fr.d3g
    df, d2f, d3f, d4f = sj.df, sj.d2f, sj.d3f, sj.d4f
    xi = np.einsum("...ab,...b->...a", ginv, df)
    dxi = np.einsum("...iab,...b->...ia", dginv, df) + np.einsum(
        "...ab,...ib->...ia", ginv, d2f
    )
    d2xi = (
        np.einsum("...ijab,...b->...ija", d2ginv, df, optimize=True)
        + np.einsum("...iab,...jb->...ija", dginv, d2f, optimize=True)
        + np.einsum("...jab,...ib->...ija", dginv, d2f, optimize=True)
        + np.einsum("...ab,...ijb->...ija", ginv, d3f, optimize=True)
    )
    if d4f is None:
        return VectorJets(xi=xi, dxi=dxi, d2xi=d2xi, d3xi=None)
    # d_a d_b d_c g^{ij} d_j f: the nine product-rule terms of the third
    # derivative of -g^{ik} d g_kl g^{lj}, each contracted with df.
    d3ginv_df = -sum(
        np.einsum(subscripts, *factors, df, optimize=True)
        for subscripts, factors in (
            ("...bcik,...akl,...lj,...j->...abci", (d2ginv, dg, ginv)),
            ("...bik,...ackl,...lj,...j->...abci", (dginv, d2g, ginv)),
            ("...bik,...akl,...clj,...j->...abci", (dginv, dg, dginv)),
            ("...cik,...abkl,...lj,...j->...abci", (dginv, d2g, ginv)),
            ("...ik,...abckl,...lj,...j->...abci", (ginv, d3g, ginv)),
            ("...ik,...abkl,...clj,...j->...abci", (ginv, d2g, dginv)),
            ("...cik,...akl,...blj,...j->...abci", (dginv, dg, dginv)),
            ("...ik,...ackl,...blj,...j->...abci", (ginv, d2g, dginv)),
            ("...ik,...akl,...bclj,...j->...abci", (ginv, dg, d2ginv)),
        )
    )
    d3xi = (
        d3ginv_df
        + np.einsum("...ijab,...kb->...ijka", d2ginv, d2f, optimize=True)
        + np.einsum("...ikab,...jb->...ijka", d2ginv, d2f, optimize=True)
        + np.einsum("...jkab,...ib->...ijka", d2ginv, d2f, optimize=True)
        + np.einsum("...iab,...jkb->...ijka", dginv, d3f, optimize=True)
        + np.einsum("...jab,...ikb->...ijka", dginv, d3f, optimize=True)
        + np.einsum("...kab,...ijb->...ijka", dginv, d3f, optimize=True)
        + np.einsum("...ab,...ijkb->...ijka", ginv, d4f, optimize=True)
    )
    return VectorJets(xi=xi, dxi=dxi, d2xi=d2xi, d3xi=d3xi)


# ------------------------------------------------------------ Lie derivatives


def lie_sym2(vj, T, dT):
    """(L_xi T)_ij for a symmetric 2-tensor with known first derivatives."""
    return (
        np.einsum("...a,...aij->...ij", vj.xi, dT)
        + np.einsum("...aj,...ia->...ij", T, vj.dxi)
        + np.einsum("...ia,...ja->...ij", T, vj.dxi)
    )


def lie_sym2_jet(vj, T, dT, d2T):
    """d_b (L_xi T)_ij."""
    return (
        np.einsum("...ba,...aij->...bij", vj.dxi, dT)
        + np.einsum("...a,...baij->...bij", vj.xi, d2T)
        + np.einsum("...baj,...ia->...bij", dT, vj.dxi)
        + np.einsum("...aj,...bia->...bij", T, vj.d2xi)
        + np.einsum("...bia,...ja->...bij", dT, vj.dxi)
        + np.einsum("...ia,...bja->...bij", T, vj.d2xi)
    )


def lie_sym2_jet2(vj, T, dT, d2T, d3T):
    """d_c d_b (L_xi T)_ij; feeds the derivative of an iterated Lie derivative."""
    return (
        np.einsum("...cba,...aij->...cbij", vj.d2xi, dT)
        + np.einsum("...ba,...caij->...cbij", vj.dxi, d2T)
        + np.einsum("...ca,...baij->...cbij", vj.dxi, d2T)
        + np.einsum("...a,...cbaij->...cbij", vj.xi, d3T)
        + np.einsum("...cbaj,...ia->...cbij", d2T, vj.dxi)
        + np.einsum("...baj,...cia->...cbij", dT, vj.d2xi)
        + np.einsum("...caj,...bia->...cbij", dT, vj.d2xi)
        + np.einsum("...aj,...cbia->...cbij", T, vj.d3xi)
        + np.einsum("...cbia,...ja->...cbij", d2T, vj.dxi)
        + np.einsum("...bia,...cja->...cbij", dT, vj.d2xi)
        + np.einsum("...cia,...bja->...cbij", dT, vj.d2xi)
        + np.einsum("...ia,...cbja->...cbij", T, vj.d3xi)
    )


def lie_metric_jets(fr, vj):
    """(T, dT) for T = L_xi g, from xi, dxi and d2xi."""
    return lie_sym2(vj, fr.g, fr.dg), lie_sym2_jet(vj, fr.g, fr.dg, fr.d2g)


# --------------------------------------------------------- vector field calcs


def cov_accel(fr, vj):
    """nabla_xi xi and its coordinate derivative."""
    v = np.einsum("...a,...ak->...k", vj.xi, vj.dxi) + np.einsum(
        "...kab,...a,...b->...k", fr.Gamma, vj.xi, vj.xi
    )
    dv = (
        np.einsum("...ia,...ak->...ik", vj.dxi, vj.dxi)
        + np.einsum("...a,...iak->...ik", vj.xi, vj.d2xi)
        + np.einsum("...ikab,...a,...b->...ik", fr.dGamma, vj.xi, vj.xi)
        + 2.0 * np.einsum("...kab,...ia,...b->...ik", fr.Gamma, vj.dxi, vj.xi)
    )
    return v, dv


def div_vector(fr, xi, dxi):
    return np.einsum("...aa->...", dxi) + np.einsum(
        "...aab,...b->...", fr.Gamma, xi
    )


def div_sym2(fr, T, dT):
    """(div T)_j = g^{ik} (nabla_i T)_{kj}, covariant components."""
    return (
        np.einsum("...ik,...ikj->...j", fr.ginv, dT)
        - np.einsum("...ik,...lik,...lj->...j", fr.ginv, fr.Gamma, T)
        - np.einsum("...ik,...lij,...kl->...j", fr.ginv, fr.Gamma, T)
    )


def trace_g(fr, T):
    return np.einsum("...ij,...ij->...", fr.ginv, T)


def trace_g_jet(fr, T, dT):
    """d_a of the g-trace of a 2-tensor T whose derivatives are dT."""
    return np.einsum("...aij,...ij->...a", fr.dginv, T) + np.einsum(
        "...ij,...aij->...a", fr.ginv, dT
    )


def norm2_sym2(fr, T):
    return np.einsum("...ik,...jl,...ij,...kl->...", fr.ginv, fr.ginv, T, T)


def norm2_covec(fr, w):
    return np.einsum("...ab,...a,...b->...", fr.ginv, w, w)


def raise_covec(fr, w):
    return np.einsum("...ab,...b->...a", fr.ginv, w)


def ric_vv(fr, v, w):
    return np.einsum("...ij,...i,...j->...", fr.Ric, v, w)


def nabla_vec_norm2(fr, vj):
    """|nabla xi|^2 with nabla xi read as the (1,1) tensor nabla_i xi^k."""
    A = vj.dxi + np.einsum("...kil,...l->...ik", fr.Gamma, vj.xi)
    return np.einsum("...ij,...kl,...ik,...jl->...", fr.ginv, fr.g, A, A)

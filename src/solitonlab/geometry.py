"""Charts, metric frames and the tensor calculus used by the soliton checks.

A chart is a box in coordinates, some axes periodic, carrying a metric given
entrywise as expressions.  Everything numerical happens on batches of points:
an array of shape (..., n) of coordinates goes in, and every derived tensor
comes back with as many batch axes in front.

On a tensor mesh, where x[..., i] varies only along batch axis i (every
quadrature grid is one), each expression is evaluated only over the axes it
depends on, and every array comes on that own batch, of size 1 along each
axis no entry varies on: (64, 1) for a metric in the first of two
coordinates, (1, 1) for a constant one; only the fit expands them to the
grid.  Error messages name the first failing node of the full grid.  Every
tensor contraction is ``contract``: numpy's einsum on its optimized path
(Smith and Gray, "opt_einsum", JOSS 3(26) 753, 2018).

Index conventions for the arrays built here, with n the chart dimension:

* ``dg[..., a, i, j]``        is  d_a g_ij, and second and third metric
  derivatives prepend further derivative axes in the same way.
* ``Gamma[..., k, i, j]``     is  Gamma^k_ij, symmetric in (i, j).
* ``dGamma[..., a, k, i, j]`` is  d_a Gamma^k_ij.
* ``Ric[..., i, j]``          is  the Ricci tensor, ``r`` its g-trace.
* For vector fields, ``xi[..., a]`` are contravariant components and
  ``dxi[..., i, a]`` is d_i xi^a; higher derivatives prepend axes likewise.

So every derivative array puts its derivative axes right after the batch
axes and before the tensor's own.  Derivatives of contractions come from
``leibniz``, which takes each factor as a list [A, dA, d^2 A, ...] in that
layout; a list too short for some term of the product rule leaves that term
out, so a one-element list holds its factor fixed.  Field jets are such
lists: ``scalar_jets`` gives [f, df, d2f, ...] and ``vector_jets`` and
``gradient_vector_jets`` give [xi, dxi, d2xi, ...], a missing order simply
absent.

Scalar curvature follows the sign convention that makes the unit round
two-sphere have r = 2.
"""

import itertools
import string
from typing import Tuple

import numpy as np

from .expr import ExprError, evaluate, parse
from .jets import JetDomainError, check_finite, seed
from .records import record


class GeometryError(ValueError):
    pass


# --------------------------------------------------------------------- charts


@record
class Chart:
    """A coordinate box with a metric; frozen so frames can be cached on it."""

    name: str
    coords: Tuple[str, ...]
    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    periodic: Tuple[bool, ...]
    metric: tuple  # n rows of n parsed expressions
    grid_hint: Tuple[int, ...]

    @property
    def dim(self):
        return len(self.coords)

    chart = property(lambda self: self)  # a Workspace takes it like a field


def chart(name, coords, lo, hi, periodic, metric_texts, grid_hint=None):
    """Parse and validate a chart definition.

    ``metric_texts`` is a full n x n table of expression strings; symmetry
    and positivity are checked numerically when a frame is built, since the
    two sides of the diagonal may be written differently.
    """
    coords = tuple(coords)
    n = len(coords)
    if not 2 <= n <= 4:
        raise GeometryError(f"chart {name!r} has dimension {n}, supported is 2..4")
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
        # Per-axis counts fit for two axes would give 2.1 million nodes in
        # three, so charts of three or more axes default to 16 per axis.
        grid_hint = tuple(16 if n >= 3 else 128 if p else 64 for p in periodic)
    grid_hint = tuple(int(m) for m in grid_hint)
    if len(grid_hint) != n or any(m < 8 for m in grid_hint):
        raise GeometryError(f"chart {name!r}: grid hint needs {n} counts of at least 8")
    return Chart(name, coords, lo, hi, periodic, metric, grid_hint)


# --------------------------------------------------------------------- fields


@record
class ScalarField:
    chart: Chart
    source: str
    node: object


def scalar_field(ch, text):
    return ScalarField(ch, text, parse(text, ch.coords))


@record
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


def _seeds(ch, x, order):
    """Coordinate jets at the points x.

    On a tensor mesh, where x[..., i] varies only along batch axis i,
    coordinate i is seeded with its axis nodes in shape (1, .., m_i, .., 1),
    so every expression is evaluated only over the axes it depends on.  Any
    other coordinate is seeded on all of x.
    """
    nb = x.ndim - 1
    seeds = []
    for i in range(ch.dim):
        pts = x
        if nb == ch.dim:
            axis = x[tuple(slice(None) if a == i else slice(1) for a in range(nb))]
            if (axis[..., i] == x[..., i]).all():
                pts = axis
        seeds.append(seed(ch.dim, pts, i, order))
    return seeds


def _derivatives(ch, x, nodes, order, what):
    """[value, d, d^2, ...] up to ``order`` of the expressions ``nodes`` (one
    expression or nested tuples of them) at the points x.

    The k-th array has shape batch + (n,) * k + shape(nodes): the derivative
    axes sit between the batch axes and the entry axes.  The batch is the
    broadcast of the entries' batches (see ``_seeds``), which broadcasts
    against x's.  A point outside a function's domain, or one where a value
    or derivative is not finite, raises GeometryError naming ``what``, the
    entry and the grid node; an ExprError raised on the grid becomes one
    naming ``what`` and the entry.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != ch.dim:
        raise GeometryError(
            f"points have {x.shape[-1]} coordinates, chart {ch.name!r} has {ch.dim}"
        )
    seeds = _seeds(ch, x, order)
    table = np.array(nodes, dtype=object)
    jets = {}
    for entry in np.ndindex(table.shape):
        at = " entry " + "".join(f"[{i}]" for i in entry) if entry else ""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                jet = evaluate(table[entry], seeds)
            check_finite(jet)
        except JetDomainError as err:
            raise GeometryError(
                f"{what}{at} not defined at "
                f"{_node_label(ch, x, err.index, err.shape)}: {err}"
            ) from None
        except ExprError as err:
            raise GeometryError(f"{what}{at}: {err}") from None
        jets[entry] = jet
    batch = np.broadcast_shapes(*(jet.value.shape for jet in jets.values()))
    out = [np.empty(batch + (ch.dim,) * k + table.shape) for k in range(order + 1)]
    for entry in np.ndindex(table.shape):
        jet = jets.pop(entry)
        for k, arr in enumerate(out):
            arr[(Ellipsis,) + entry] = jet.derivative(k)
    return out


def scalar_jets(field, x, order=3):
    """[f, df, ..., d^order f] at the points x."""
    return _derivatives(field.chart, x, field.node, order, repr(field.source))


def stacked_scalar_jets(fields, x):
    """Order-3 scalar jets of several fields of one chart from one
    ``_derivatives`` call, the field as a leading batch axis: f[k] belongs to
    fields[k], and an error names the failing field as entry [k]."""
    ch = fields[0].chart
    arrays = _derivatives(ch, x, tuple(f.node for f in fields), 3,
                          "fields (" + ", ".join(repr(f.source) for f in fields)
                          + ")")
    return [np.moveaxis(a, -1, 0) for a in arrays]


def vector_jets(field, x):
    """[xi, dxi, d2xi, d3xi] at the points x; dxi[..., i, a] = d_i xi^a."""
    return _derivatives(field.chart, x, field.nodes, 3,
                        f"vector field on {field.chart.name!r}")


# ---------------------------------------------------------------- product rule


def contract(subscripts, *operands):
    """The one tensor contraction: numpy's einsum on the optimized path.  An
    overflow stays silent, as in ``_derivatives``; the inf or nan it leaves
    is reported where a check or report reads it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum(subscripts, *operands, optimize=True)


def leibniz(subscripts, *operands, k):
    """d^k of ``contract(subscripts, A, B, ...)`` for operands given as
    lists [A, dA, d^2 A, ...] in the layout of the module docstring.

    Each way of handing the k new derivative axes to the operands adds one
    term, and the new axes lead the result's own.  Every subscript term
    starts with "...".  Each term is added in place and dropped before the
    next one is formed."""
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    new = "".join(c for c in string.ascii_letters if c not in subscripts)[:k]
    total = None
    for owners in itertools.product(range(len(operands)), repeat=k):
        axes = ["".join(a for a, o in zip(new, owners) if o == p)
                for p in range(len(operands))]
        if any(len(ax) >= len(op) for ax, op in zip(axes, operands)):
            continue
        spec = ",".join("..." + ax + sub[3:] for ax, sub in zip(axes, inputs))
        term = contract(f"{spec}->...{new}{output[3:]}",
                        *(op[len(ax)] for ax, op in zip(axes, operands)))
        if total is None:
            total = term
        else:
            total += term
        del term
    return total


# --------------------------------------------------------------------- frames


class PointFrame:
    """Metric data and curvature at a batch of points, compared by identity."""

    chart: Chart
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

    def __init__(self, **fields):
        self.__dict__.update(fields)


def _node_label(ch, x, flat, shape):
    """Name the grid node of entry ``flat`` of an array whose batch shape
    ``shape`` broadcasts against x's batch.  The entry is unravelled in
    ``shape``, padded on the left, and every size-1 axis keeps index 0, which
    is the first node in C order of x's batch where the entry's value holds.
    """
    idx = np.unravel_index(flat, shape) if shape else ()
    node = (0,) * (x.ndim - 1 - len(shape)) + tuple(int(i) for i in idx)
    where = ", ".join(f"{nm}={v:.6g}" for nm, v in zip(ch.coords, x[node]))
    return f"node {node} ({where})"


def frame(ch, x):
    """Evaluate the metric with three derivative orders and assemble curvature.

    The frame's arrays are read-only and on the broadcast batch of the
    metric entries (see ``_derivatives``).
    """
    x = np.asarray(x, dtype=float)
    n = ch.dim
    g, dg, d2g, d3g = _derivatives(ch, x, ch.metric, 3, f"metric of {ch.name!r}")
    # The chain runs on one batch axis, so a mesh and a list of points take
    # the same einsum paths: on a 16x16 mesh of a metric in both
    # coordinates, dr assembled on two batch axes differed in the last bit
    # between processes.  A flat index counts in ``batch`` in C order.
    batch = g.shape[:-2]
    g, dg, d2g, d3g = (D.reshape((-1,) + D.shape[len(batch):])
                       for D in (g, dg, d2g, d3g))

    scale = 1.0 + float(np.max(np.abs(g)))
    skew = np.abs(g - np.swapaxes(g, -1, -2))
    if np.max(skew) > 1e-14 * scale:
        flat = int(np.argmax(skew.reshape(-1, n, n).max(axis=(1, 2))))
        i, j = np.unravel_index(np.argmax(skew.reshape(-1, n, n)[flat]), (n, n))
        raise GeometryError(
            f"metric of {ch.name!r} is not symmetric: entries [{i}][{j}] and "
            f"[{j}][{i}] differ by {skew.reshape(-1, n, n)[flat, i, j]:.3e} at "
            + _node_label(ch, x, flat, batch)
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
            f"(eigenvalue {eigs[flat, 0]:.3e}) at " + _node_label(ch, x, flat, batch)
        ) from None
    sqrtg = np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)
    ginv = np.linalg.inv(g)

    # G = [g^-1, d g^-1, d^2 g^-1], each from d g^-1 = -g^-1 dg g^-1.
    G, DG = [ginv], [dg, d2g, d3g]
    for k in range(2):
        G.append(-leibniz("...ik,...akl,...lj->...aij", G, DG, G, k=k))

    # S_lij = d_i g_lj + d_j g_li - d_l g_ij and its derivatives, stored as
    # S[..., i, j, l] so that einsum's matrix products read S in place; the
    # ellipsis carries the batch axes and any further derivative axes.
    S = [contract("...ilj->...ijl", D) + contract("...jli->...ijl", D)
         - contract("...lij->...ijl", D) for D in DG]
    Gamma, dGamma, d2Gamma = Gam = [
        0.5 * leibniz("...kl,...ijl->...kij", G, S, k=k) for k in range(3)
    ]
    Ric, dRic = Rics = [
        leibniz("...kkij->...ij", Gam[1:], k=k)
        - leibniz("...ikkj->...ij", Gam[1:], k=k)
        + leibniz("...kkl,...lij->...ij", Gam, Gam, k=k)
        - leibniz("...kil,...lkj->...ij", Gam, Gam, k=k)
        for k in range(2)
    ]
    r, dr = (leibniz("...ij,...ij->...", G, Rics, k=k) for k in range(2))
    fields = dict(g=g, ginv=ginv, sqrtg=sqrtg, dg=dg, d2g=d2g, d3g=d3g,
                  dginv=G[1], d2ginv=G[2], Gamma=Gamma, dGamma=dGamma,
                  d2Gamma=d2Gamma, Ric=Ric, dRic=dRic, r=r, dr=dr)
    fields = {key: a.reshape(batch + a.shape[1:]) for key, a in fields.items()}
    for a in fields.values():
        a.flags.writeable = False  # a cached frame is shared by every reader
    return PointFrame(chart=ch, **fields)


# ----------------------------------------------------- scalar field operators


def hessian(fr, sj, k=0):
    """d^k Hess(f)_ij for k <= 2 from sj = [f, ..., d^(k+2) f], or more."""
    if len(sj) < k + 3:
        raise ValueError(f"d^{k} of Hess f needs d^{k + 2} f")
    return sj[2 + k] - leibniz("...kij,...k->...ij",
                               [fr.Gamma, fr.dGamma, fr.d2Gamma], sj[1:], k=k)


def laplacian(fr, sj):
    return trace_g(fr, hessian(fr, sj))


def gradient_vector_jets(fr, sj):
    """[xi, dxi, ...] of xi = grad f from sj = [f, df, ...], one entry fewer
    than sj: d^k xi needs d^(k+1) f.

    xi = g^{-1} df, so d^k xi is g^{-1} times d^(k+1) f less the terms of
    d^k (g xi) that hold lower derivatives of xi: ``leibniz`` leaves out the
    one term needing d^k xi, which the list of xi jets does not hold yet.
    """
    Gs, X = [fr.g, fr.dg, fr.d2g, fr.d3g], []
    for k, dkf in enumerate(sj[1:]):
        rest = dkf - leibniz("...ab,...b->...a", Gs, X, k=k) if k else dkf
        axes = "cde"[:k]
        X.append(leibniz(f"...ab,...{axes}b->...{axes}a", [fr.ginv], [rest],
                         k=0))
    return X


# ------------------------------------------------------------ Lie derivatives


def lie_jet(vj, Ts, k):
    """d^k (L_xi T)_ij of a symmetric 2-tensor T from Ts = [T, dT, ...],
    which must reach d^(k+1) T, and xi's jets to order k + 1; a shorter list
    raises ValueError, since ``leibniz`` would silently drop its terms.

    (L_xi T)_ij = xi^a d_a T_ij + P_ij + P_ji with P_ij = T_ja d_i xi^a, the
    last term by the symmetry of T.  Each array contracts over its last
    index or its first derivative axis, so einsum's matrix products read it
    in place: d^m d_a T is symmetric in its m + 1 derivative axes, and
    moving the first of them behind the others changes no value.
    """
    if min(len(vj), len(Ts)) < k + 2:
        raise ValueError(f"d^{k} of L_xi T needs {k + 2} jets of xi and of T")
    dTs = [np.moveaxis(D, D.ndim - 3 - m, D.ndim - 3)
           for m, D in enumerate(Ts[1:])]
    L = leibniz("...a,...aij->...ij", vj, dTs, k=k)
    P = leibniz("...ja,...ia->...ij", Ts, vj[1:], k=k)
    L += P
    L += np.swapaxes(P, -1, -2)
    return L


def lie_metric_jets(fr, vj):
    """(T, dT) for T = L_xi g, from xi, dxi and d2xi."""
    Gs = [fr.g, fr.dg, fr.d2g]
    return lie_jet(vj, Gs, 0), lie_jet(vj, Gs, 1)


# --------------------------------------------------------- vector field calcs


def cov_accel(fr, vj):
    """nabla_xi xi and its coordinate derivative."""
    Gam = [fr.Gamma, fr.dGamma]
    return tuple(
        leibniz("...a,...ak->...k", vj, vj[1:], k=k)
        + leibniz("...kab,...a,...b->...k", Gam, vj, vj, k=k)
        for k in range(2)
    )


def div_vector(fr, xi, dxi):
    return contract("...aa->...", dxi) + contract("...aab,...b->...", fr.Gamma, xi)


def div_sym2(fr, T, dT):
    """(div T)_j = g^{ik} (nabla_i T)_{kj}, covariant components."""
    return (
        contract("...ik,...ikj->...j", fr.ginv, dT)
        - contract("...ik,...lik,...lj->...j", fr.ginv, fr.Gamma, T)
        - contract("...ik,...lij,...kl->...j", fr.ginv, fr.Gamma, T)
    )


def trace_g(fr, T):
    return contract("...ij,...ij->...", fr.ginv, T)


def trace_g_jet(fr, T, dT):
    """d_a of the g-trace of a 2-tensor T whose derivatives are dT."""
    return leibniz("...ij,...ij->...", [fr.ginv, fr.dginv], [T, dT], k=1)


def norm2_sym2(fr, T):
    return contract("...ik,...jl,...ij,...kl->...", fr.ginv, fr.ginv, T, T)


def pair(M, v, w):
    """M(v, w) = M_ab v^a w^b for a 2-tensor field M: g^{-1}(a, b) of two
    covectors, or g(v, w) and Ric(v, w) of two vectors."""
    return contract("...ab,...a,...b->...", M, v, w)


def norm2_covec(fr, w):
    return pair(fr.ginv, w, w)


def raise_covec(fr, w):
    return contract("...ab,...b->...a", fr.ginv, w)


def ric_vv(fr, v, w):
    return pair(fr.Ric, v, w)


def nabla_vec_norm2(fr, vj):
    """|nabla xi|^2 with nabla xi read as the (1,1) tensor nabla_i xi^k."""
    A = vj[1] + contract("...kil,...l->...ik", fr.Gamma, vj[0])
    return contract("...ij,...kl,...ik,...jl->...", fr.ginv, fr.g, A, A)

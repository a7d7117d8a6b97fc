"""Product quadrature on chart boxes.

The chart decides each axis's rule from its ``periodic`` flag
(``axis_rules``), and every rule covers the axis's whole range [lo, hi]; a
``GridSpec`` holds only the node count per axis.

Periodic axes use the trapezoid rule on equispaced nodes with the right
endpoint dropped, which integrates trigonometric polynomials below the
aliasing frequency exactly.  Non-periodic axes use the cosine rule, a
Gauss-Legendre rule in the variable u = cos(sigma), where sigma rescales the axis to
[0, pi]:

    x_k = lo + (hi - lo) * arccos(u_k) / pi
    v_k = w_k * (hi - lo) / (pi * sin(sigma_k))

This rule is exact for integrands of the form sin(sigma) * P(cos(sigma))
with P a polynomial of GL-exactness degree.  On charts whose volume element
supplies the sin(sigma) factor (polar angles do), smooth integrands that are
polynomial in the cosine of the angle integrate exactly, and, just as
important here, the nodes stay well away from the coordinate poles where
inverse-metric derivatives blow up in floating point.  The Gauss-Legendre
rule is numpy's ``leggauss``, bit for bit, built here (``_gauss_legendre``)
because importing ``numpy.polynomial`` cost 4.7 ms in every cold command
with a polar axis.

An integral against the Riemannian volume is sum(values * w * sqrt(det g))
over the mesh ``x, w = grid_nodes(ch, spec)``, with sqrt(det g) taken from
the frame on the same nodes (``solitons.grid_frame(ch, spec).sqrtg``).
"""

from functools import lru_cache
from typing import Tuple

import numpy as np

from .records import record


class QuadratureError(ValueError):
    pass


@record
class GridSpec:
    counts: Tuple[int, ...]

    def __post_init__(self):
        for m in self.counts:
            if m < 8:
                raise QuadratureError(f"grid needs at least 8 nodes per axis, got {m}")


def default_grid(ch, counts=None):
    """The chart's preferred grid: node counts from the chart unless
    overridden."""
    if counts is None:
        counts = ch.grid_hint
    counts = tuple(int(m) for m in counts)
    if len(counts) != ch.dim:
        raise QuadratureError(
            f"chart {ch.name!r} needs {ch.dim} node counts, got {len(counts)}"
        )
    return GridSpec(counts)


def axis_rules(ch):
    """Each axis's rule: trapezoid on periodic axes, cosine rule elsewhere."""
    return tuple("periodic" if p else "cosine" for p in ch.periodic)


def _legval(x, c):
    """Legendre series c at x by Clenshaw's recurrence, as numpy's legval."""
    nd, c0, c1 = len(c), c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp, nd = c0, nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)  # numpy 2.4's grouping
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(m):
    """numpy 2.4's ``leggauss(m)`` (BSD-3-Clause) step for step, m >= 2."""
    k = np.arange(m)
    s = 1.0 / np.sqrt(2 * k + 1)
    off = np.arange(1, m) * s[:-1] * s[1:]  # the symmetric Jacobi matrix
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_m = 1.0 * (np.arange(m + 1) == m)
    df = _legval(x, (m - k) % 2 * (2.0 * k + 1))  # P'_m: (2k+1) P_k, m-k odd
    x -= _legval(x, p_m) / df  # one Newton step
    fm = _legval(x, p_m[1:])
    w = 1 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    return (x - x[::-1]) / 2, w * (2.0 / w.sum())


def axis_rule(rule, lo, hi, m):
    """Nodes and weights for one axis over [lo, hi]."""
    if rule == "periodic":
        step = (hi - lo) / m
        return lo + step * np.arange(m), np.full(m, step)
    u, w = _gauss_legendre(m)
    # Cosine rule: Gauss-Legendre in u = cos(sigma), sigma affine over [lo, hi].
    sigma = np.arccos(u)[::-1]
    length = hi - lo
    nodes = lo + length * sigma / np.pi
    weights = w[::-1] * length / (np.pi * np.sin(sigma))
    return nodes, weights


@lru_cache(maxsize=32)
def grid_nodes(ch, spec):
    """Mesh of nodes (..., dim) and product weights (...); cached, not to be
    mutated by callers."""
    if len(spec.counts) != ch.dim:
        raise QuadratureError(
            f"grid spec has {len(spec.counts)} axes, chart {ch.name!r} has {ch.dim}"
        )
    axes, wts = [], []
    for rule, lo, hi, m in zip(axis_rules(ch), ch.lo, ch.hi, spec.counts):
        nodes, weights = axis_rule(rule, lo, hi, m)
        axes.append(nodes)
        wts.append(weights)
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    w = wts[0]
    for more in wts[1:]:
        w = np.multiply.outer(w, more)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w

"""Product quadrature on chart boxes.

Periodic axes use the trapezoid rule on equispaced nodes with the right
endpoint dropped, which integrates trigonometric polynomials below the
aliasing frequency exactly.  Non-periodic axes default to a Gauss-Legendre
rule in the variable u = cos(sigma), where sigma rescales the axis to
[0, pi]:

    x_k = lo + (hi - lo) * arccos(u_k) / pi
    v_k = w_k * (hi - lo) / (pi * sin(sigma_k))

This rule is exact for integrands of the form sin(sigma) * P(cos(sigma))
with P a polynomial of GL-exactness degree.  On charts whose volume element
supplies the sin(sigma) factor (polar angles do), smooth integrands that are
polynomial in the cosine of the angle integrate exactly, and, just as
important here, the nodes stay well away from the coordinate poles where
inverse-metric derivatives blow up in floating point.  A plain Gauss-Legendre
rule in x is available under the name "legendre" for comparisons.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .geometry import _node_label, frame
from .jets import JetDomainError

RULES = ("periodic", "legendre", "cosine")


class QuadratureError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    counts: Tuple[int, ...]
    rules: Tuple[str, ...]

    def __post_init__(self):
        if len(self.counts) != len(self.rules):
            raise QuadratureError("grid counts and rules must have equal length")
        for m in self.counts:
            if m < 8:
                raise QuadratureError(f"grid needs at least 8 nodes per axis, got {m}")
        for rule in self.rules:
            if rule not in RULES:
                raise QuadratureError(f"unknown quadrature rule {rule!r}")


def default_grid(ch, counts=None):
    """The chart's preferred grid: trapezoid on periodic axes, cosine rule
    elsewhere, with node counts from the chart unless overridden."""
    if counts is None:
        counts = ch.grid_hint
    counts = tuple(int(m) for m in counts)
    if len(counts) != ch.dim:
        raise QuadratureError(
            f"chart {ch.name!r} needs {ch.dim} node counts, got {len(counts)}"
        )
    rules = tuple("periodic" if p else "cosine" for p in ch.periodic)
    return GridSpec(counts, rules)


def axis_rule(rule, lo, hi, m, margin=0.0):
    """Nodes and weights for one axis; margin shrinks non-periodic axes."""
    if rule == "periodic":
        step = (hi - lo) / m
        return lo + step * np.arange(m), np.full(m, step)
    a, b = lo + margin, hi - margin
    u, w = np.polynomial.legendre.leggauss(m)
    if rule == "legendre":
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * u, half * w
    # Cosine rule: Gauss-Legendre in u = cos(sigma), sigma affine over [a, b].
    sigma = np.arccos(u)[::-1]
    length = b - a
    nodes = a + length * sigma / np.pi
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
    for i in range(ch.dim):
        margin = 0.0 if ch.periodic[i] else ch.exclusion_margin
        nodes, weights = axis_rule(
            spec.rules[i], ch.lo[i], ch.hi[i], spec.counts[i], margin
        )
        axes.append(nodes)
        wts.append(weights)
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    w = wts[0]
    for more in wts[1:]:
        w = np.multiply.outer(w, more)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def integrate(fun, ch, spec=None):
    """Integral of ``fun`` against the metric volume of the chart.

    ``fun`` is either a callable evaluated on the node mesh or an array of
    values already on it.  The result is sum(w * fun * sqrt(det g)) in fixed
    C order, so repeated runs give bit-identical values.
    """
    if spec is None:
        spec = default_grid(ch)
    x, w = grid_nodes(ch, spec)
    if callable(fun):
        try:
            values = np.asarray(fun(x), dtype=float)
        except JetDomainError as err:
            flat = err.index if err.index is not None else 0
            raise QuadratureError(
                f"integrand not defined at {_node_label(ch, x, flat)}: {err}"
            ) from None
    else:
        values = np.asarray(fun, dtype=float)
    if values.shape != w.shape:
        raise QuadratureError(
            f"integrand values have shape {values.shape}, grid has {w.shape}"
        )
    return float(np.sum(values * w * frame(ch, x).sqrtg))

"""Composite Gauss-Legendre panels and a vectorized adaptive Simpson rule.

Integrals of smooth pieces are sampled once on 16-point Gauss panels split
at the lattice cells and the signal's declared breakpoints and kinks: cell
means, convergence errors, and the Orlicz modular (the pair checks' rhs
among them) and Luxemburg norm, which ``orlicz`` checks a posteriori
against the same rule on halved panels; ``lattice_nodes`` builds the
nodes of half-cell panels as a lattice cell plus one of 32 offsets.
Adaptive Simpson stays where kinks go unmarked: ``kernels.l1_norm`` (the
sign changes of a signed kernel) and the pair checks' lhs, where the
operator bends wherever its maximizing lattice cell changes; it stops under
one global error budget, so a kink is not chased down to a panel as narrow
as its share of ``atol``.  Each round evaluates all its new nodes in one
integrand call, since an operator sweep costs far more per call than per
point.

Integrands must accept numpy arrays.  Divergent integrals (overflowing
values or partial sums) are reported as ``math.inf``; failure to converge
within the subdivision budget raises :class:`QuadratureError` instead, so
the two conditions are never conflated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

OVERFLOW_GUARD = 1e100
PASS_SIZE = 1 << 12  # panels whose nodes are built and evaluated at a time
_MAX_ROUNDS = 48  # halvings of the widest panel before giving up
_MAX_PANELS = 1 << 14  # panels a posteriori halving may add
_MAX_LIVE = 1 << 17  # panels a round may evaluate, or twice the edges given
# on first use: importing numpy.polynomial costs 13 ms and 0.5 MiB
_gauss = functools.cache(lambda: np.polynomial.legendre.leggauss(16))


def composite_nodes(edges) -> tuple[np.ndarray, np.ndarray]:
    """Flattened nodes/weights of a panel-wise Gauss rule.

    ``edges`` are the sorted panel boundaries; each panel gets the same
    16-point rule.  The returned weights integrate: sum(w * f(x)).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    xi, wi = _gauss()
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * wi[None, :]).ravel()
    return x, w


@dataclass(frozen=True)
class LatticeNodes:
    """Points x = u / n of the lattice 1/n, in lattice units first: u =
    cells + offsets[offset], each offset in [0, 1), or in [-1/2, 1/2] from
    the operator's rint split of points.  Then chi(u - k) = chi(offsets[i]
    - (k - cell)), one per distinct offset and column shift however many
    points share them.  ``np.asarray`` gives the points x."""

    n: int
    cells: np.ndarray     # int64
    offset: np.ndarray    # per point, an index into ``offsets``
    offsets: np.ndarray

    def __array__(self, *args, **kwargs):
        u = self.cells + self.offsets[self.offset]
        return np.asarray(u / self.n, *args, **kwargs)

    def chi(self, kernel, d_lo: int, d_hi: int, pairs: int):
        """chi(rows, d): the kernel at o - d for the points rows at the
        column shifts d = k - cell, read from one table of chi(o - d) per
        offset o and shift in [d_lo, d_hi] if it holds fewer values than
        the ``pairs`` it serves, else computed per pair."""
        if self.offsets.size * (d_hi - d_lo + 1) >= pairs:
            return lambda rows, d: kernel.evaluate(
                self.offsets[self.offset[rows]] - d)
        table = kernel.evaluate(   # a row per offset, a column per shift
            self.offsets[:, None] - np.arange(d_lo, d_hi + 1))
        row = np.arange(self.offsets.size) * table.shape[1] - d_lo
        return lambda rows, d: table.take(d + row[self.offset[rows]])


def lattice_nodes(edges, n: int) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray, LatticeNodes]:
    """``composite_nodes(edges)``, with the nodes of each half-cell panel
    [j/2n, (j+1)/2n] built as u = floor(j/2) + o_i, x = u / n, where the 32
    offsets o_i = (j mod 2)/2 + (1 + xi_i)/4 are the Gauss nodes of the two
    halves of a cell.  Other panels, such as those a split point off the
    lattice cuts, keep their x-nodes.  Returns the nodes x, the weights,
    the mask of the half-cell nodes and those nodes as ``LatticeNodes``.
    """
    x, w = composite_nodes(edges)
    edges = np.asarray(edges, dtype=float)
    j = np.rint(2.0 * n * edges[:-1])
    half = (edges[:-1] == j / (2.0 * n)) & (edges[1:] == (j + 1.0) / (2.0 * n))
    j = j[half].astype(np.int64)
    xi = _gauss()[0]
    offsets = np.concatenate([(1.0 + xi) / 4.0, 0.5 + (1.0 + xi) / 4.0])
    nodes = LatticeNodes(n, np.repeat(j // 2, xi.size), (
        (j % 2).astype(np.uint8)[:, None] * xi.size
        + np.arange(xi.size, dtype=np.uint8)).ravel(), offsets)
    on = np.repeat(half, xi.size)
    x[on] = np.asarray(nodes)
    return x, w, on, nodes


def adaptive(fn, edges, atol: float = 1e-10, rtol: float = 1e-12) -> float:
    """Adaptive Simpson integration over the panels defined by ``edges``.

    A panel is accepted when its Richardson error estimate |s2 - s| / 15
    drops below its width's share of ``atol`` plus ``rtol`` times its
    value.  The run ends as soon as the accepted panels' estimates plus
    |s2 - s| over the open ones fit atol + rtol * |I|: at a kink the error
    shrinks as h**2, not h**4, and the Richardson estimate undershoots it.
    ``fn`` is called once on the edges and midpoints, then once per round
    on the quarter points of the live panels, so a costly integrand pays
    its per-call overhead 1 + rounds times.
    Returns ``math.inf`` as soon as a node value or a partial sum leaves
    the representable range (divergence guard).  Raises
    :class:`QuadratureError` after ``_MAX_ROUNDS`` rounds, or before a round
    that would evaluate more than ``_MAX_LIVE`` panels or twice the edges.
    """
    edges = np.unique(np.asarray(edges, dtype=float))
    if edges.size < 2:
        return 0.0
    max_live = max(_MAX_LIVE, 2 * edges.size)
    a = edges[:-1]
    b = edges[1:]
    total_width = float(edges[-1] - edges[0])
    m = 0.5 * (a + b)
    values = fn(np.concatenate([edges, m]))
    if not np.isfinite(values).all():
        return math.inf
    fa, fb, fm = values[:a.size], values[1:edges.size], values[edges.size:]
    s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    result = spent = 0.0
    for _ in range(_MAX_ROUNDS):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        values = fn(np.concatenate([lm, rm]))
        if not np.isfinite(values).all():
            return math.inf
        flm, frm = values[:a.size], values[a.size:]
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        s2 = sl + sr
        diff = np.abs(s2 - s)
        err = diff / 15.0
        acc = s2 + (s2 - s) / 15.0
        local_tol = atol * (b - a) / total_width + rtol * np.abs(s2)
        done = (err <= local_tol) | ((b - a) <= 1e-14 * max(1.0, total_width))
        live = ~done
        result += float(np.sum(acc[done]))
        spent += float(np.sum(err[done]))
        estimate = result + float(np.sum(acc[live]))
        if not math.isfinite(estimate) or abs(estimate) > OVERFLOW_GUARD:
            return math.inf
        if not live.any():
            return result
        if spent + float(np.sum(diff[live])) <= atol + rtol * abs(estimate):
            return estimate
        if 2 * np.count_nonzero(live) > max_live:
            break
        a = np.concatenate([a[live], m[live]])
        b = np.concatenate([m[live], b[live]])
        fa = np.concatenate([fa[live], fm[live]])
        fb = np.concatenate([fm[live], fb[live]])
        fm = np.concatenate([flm[live], frm[live]])
        s = np.concatenate([sl[live], sr[live]])
        m = 0.5 * (a + b)
    raise QuadratureError(
        f"adaptive Simpson did not converge within {_MAX_ROUNDS} rounds "
        f"and {max_live} live panels ({a.size} panels in the last round)")

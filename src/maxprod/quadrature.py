"""Composite Gauss-Legendre panels and a vectorized adaptive Simpson rule.

Integrals of smooth pieces are sampled once on 16-point Gauss panels split
at the lattice cells and the signal's declared breakpoints and kinks: cell
means, convergence errors, and the Orlicz modular (the pair checks' rhs
among them) and Luxemburg norm, which ``orlicz`` checks a posteriori
against the same rule on halved panels.
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

import numpy as np

from .errors import QuadratureError

OVERFLOW_GUARD = 1e100
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

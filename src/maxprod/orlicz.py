"""Phi-functions, the modular functional and the Luxemburg norm.

The shipped phi-functions are ``power:p`` (u**p, p >= 1), ``zygmund:a,b``
(u**a * log(u+e)**b) and ``exponential:g`` (exp(u**g) - 1).  The first two
satisfy the doubling condition phi(2u) <= M phi(u); the exponential family
does not, which is exactly what separates modular from norm convergence in
the experiments.

``modular`` and ``luxemburg_norm`` sample |f| once on 16-point Gauss panels
split at the signal's breakpoints and kinks and solve as ``converge`` does
(one fixed-order sum, one root loop on it).  Then phi(c |f|) at the result
(c = scale or 1/norm) is summed on the panels and their halves; panels whose
sums disagree beyond ``tol`` relative are halved and the result redone.  A
divergent modular is ``math.inf``; a failing check raises QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .errors import MaxprodError, QuadratureError, UnknownNameError
from .signals import Signal


@dataclass(frozen=True)
class PhiFunction:
    """Convexity-flagged phi-function; ``evaluate`` maps u >= 0 to phi(u),
    overflowing to inf, which the functionals below read as divergence."""

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    convex: bool
    delta2: bool


def power_phi(p: float) -> PhiFunction:
    """phi(u) = u**p for finite p >= 1 (the L^p modular)."""
    if not 1 <= p < math.inf:
        raise ValueError(f"power exponent must be finite and >= 1, not {p}")
    p = float(p)
    return PhiFunction(f"power:{p:g}", lambda u: np.asarray(u, float) ** p,
                       convex=True, delta2=True)


def zygmund_phi(alpha: float, beta: float) -> PhiFunction:
    """phi(u) = u**alpha * log(u + e)**beta for finite alpha >= 1, beta > 0."""
    if not 1 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, not {alpha}")
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and positive, not {beta}")
    alpha, beta = float(alpha), float(beta)

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        return u ** alpha * np.log(u + math.e) ** beta

    return PhiFunction(f"zygmund:{alpha:g},{beta:g}", evaluate,
                       convex=True, delta2=True)


def exponential_phi(gamma: float) -> PhiFunction:
    """phi(u) = exp(u**gamma) - 1 for finite gamma > 0.

    Fails the doubling condition for every gamma.  For gamma < 1 the
    function is not convex near zero; the flag records that and the
    convexity-dependent checks skip such instances.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and positive, not {gamma}")
    gamma = float(gamma)
    return PhiFunction(f"exponential:{gamma:g}",
                       lambda u: np.expm1(np.asarray(u, float) ** gamma),
                       convex=gamma >= 1.0, delta2=False)


def phi_by_name(name: str) -> PhiFunction:
    """Resolve a phi-function from its CLI string."""
    key = name.strip().lower()
    try:
        if key.startswith("power:"):
            return power_phi(float(key.split(":", 1)[1]))
        if key.startswith("zygmund:"):
            a, b = key.split(":", 1)[1].split(",")
            return zygmund_phi(float(a), float(b))
        if key.startswith("exponential:"):
            return exponential_phi(float(key.split(":", 1)[1]))
    except (ValueError, IndexError):
        raise UnknownNameError(f"malformed phi-function name: {name!r}") from None
    raise UnknownNameError(f"unknown phi-function: {name!r}")


# ---------------------------------------------------------------------------
# modular and Luxemburg norm

def _sampled(phi: PhiFunction, f: Signal, window: tuple[float, float],
             tol: float, solve) -> float:
    """Run ``solve(values, weights, tol) -> (result, c)`` on sampled |f|,
    then check phi(c |f|) as the module docstring says.  Only panels off by
    more than their width's share of the tolerance are halved, so an
    unmarked jump adds one panel per round; the added panels are capped.
    """
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise ValueError("window must be a nondegenerate interval")
    edges = np.asarray([a, *(t for t in f.split_points() if a < t < b), b])
    budget = edges.size + quadrature._MAX_PANELS
    for _ in range(quadrature._MAX_ROUNDS):
        x, w = quadrature.composite_nodes(edges)
        values = np.abs(f.evaluate(x))
        result, c = solve(values, w, tol)
        if math.isinf(result):
            return result
        mids = 0.5 * (edges[:-1] + edges[1:])
        xh, wh = quadrature.composite_nodes(
            np.sort(np.concatenate([edges, mids])))
        with np.errstate(over="ignore"):
            coarse = (w * phi.evaluate(c * values)).reshape(mids.size, -1)
            fine = (wh * phi.evaluate(c * np.abs(f.evaluate(xh)))).reshape(
                mids.size, -1)
        err = np.abs(fine.sum(axis=1) - coarse.sum(axis=1))
        share = tol * abs(float(np.sum(fine))) * np.diff(edges) / (b - a)
        if np.sum(err) <= np.sum(share) < math.inf:
            return result
        # a half-panel node that overflows is kept for the next round
        split = ~(np.isfinite(err) & (err <= share))
        edges = np.sort(np.concatenate([edges, mids[split]]))
        if edges.size > budget:
            break
    raise QuadratureError(f"sampled quadrature did not reach tol={tol:g} "
                          f"({edges.size - 1} panels)")


def modular(phi: PhiFunction, f: Signal, window: tuple[float, float],
            tol: float = 1e-10, scale: float = 1.0) -> float:
    """Modular integral of phi(scale * |f|) over the window, to ``tol``;
    ``math.inf`` when the integrand overflows (the signal is not in the
    modular space at this scaling)."""
    return _sampled(phi, f, window, tol, lambda values, weights, _: (
        modular_from_samples(phi, scale * values, weights), scale))


def modular_from_samples(phi: PhiFunction, values: np.ndarray,
                         weights: np.ndarray) -> float:
    """Modular of a sampled function, sum(w * phi(|values|)), summed in
    numpy's fixed order, not by BLAS; inf past ``OVERFLOW_GUARD``."""
    with np.errstate(over="ignore"):
        out = float(np.sum(weights * phi.evaluate(np.abs(values))))
    return out if abs(out) <= quadrature.OVERFLOW_GUARD else math.inf


def luxemburg_norm(phi: PhiFunction, f: Signal, window: tuple[float, float],
                   tol: float = 1e-9) -> float:
    """Luxemburg norm inf{lam > 0 : modular of f/lam <= 1} on the window:
    ``luxemburg_from_samples`` on the checked samples, to ``tol`` relative
    for convex phi."""

    def solve(values, weights, tol):
        lam = luxemburg_from_samples(phi, values, weights, tol)
        return lam, 1.0 / lam if lam > 0.0 else 1.0

    return _sampled(phi, f, window, tol, solve)


def luxemburg_from_samples(phi: PhiFunction, values: np.ndarray,
                           weights: np.ndarray, tol: float) -> float:
    """Luxemburg norm nu = inf{lam > 0 : rho(f/lam) <= 1} of a sampled
    function (rho = ``modular_from_samples``), certified by
    rho(f/nu) <= 1 < rho(f/(nu (1 - tol))); tol is read as at least 1e-12.

    One loop in t = log lam.  At lam = top = max |f|, rho = m is finite;
    for convex phi lam rho(f/lam) does not grow with lam, so nu lies
    between top and m top, the first step.  Then secants of log rho against
    t (exact for u**p), at least tol/2 long and toward the root, or
    bisections of the bracket of evaluated points when a secant leaves it
    or passes half the step before last (Brent), until
    hi - lo <= -log(1 - tol).  A non-finite sample raises MaxprodError.
    """
    tol = max(tol, 1e-12)   # t resolves it across the float range
    lam, shift = math.frexp(float(np.max(np.abs(values))))  # top/2**shift
    if not math.isfinite(lam):
        raise MaxprodError("the Luxemburg norm needs finite samples")
    if lam == 0.0:
        return 0.0
    t, prev, steps = math.log(lam), None, (math.inf, math.inf)
    lo, hi, lam_lo, lam_hi = -math.inf, math.inf, 0.0, math.inf
    with np.errstate(all="ignore"):
        while True:
            rho = modular_from_samples(phi, values / np.ldexp(lam, shift),
                                       weights)
            g = math.log(rho) if rho > 0.0 else -math.inf
            if g > 0.0:
                lo, lam_lo, toward = t, lam, 1.0
            else:
                hi, lam_hi, toward = t, lam, -1.0
            if lam_lo >= lam_hi * (1.0 - tol):   # inf past the float range
                return float(np.ldexp(lam_hi, shift))
            slope = (g - prev[1]) / (t - prev[0]) if prev else -1.0
            slope = slope if -math.inf < slope < 0.0 else -1.0  # bad secant
            prev = t, g
            t += toward * max(toward * -g / slope, 0.5 * tol)
            if hi - lo < math.inf and not (
                    lo < t < hi and abs(t - prev[0]) <= 0.5 * steps[0]):
                t = 0.5 * (lo + hi)
            steps = steps[1], abs(t - prev[0])
            lam = float(np.exp(t))


def maxphi_inequality_check(phi: PhiFunction, values) -> tuple[bool, bool]:
    """Check the max/convexity inequality on a finite set of values >= 0.

    Returns ``(phi(max A) <= max phi(2A), phi(max A) == max phi(A))``.  The
    equality is exact for finite sets because phi is non-decreasing; a
    1e-12 relative slack absorbs elementwise rounding.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        raise ValueError("need at least one value")
    if np.any(a < 0):
        raise ValueError("values must be non-negative")
    with np.errstate(over="ignore"):
        lhs = float(phi.evaluate(np.array([a.max()]))[0])
        doubled = float(np.max(phi.evaluate(2.0 * a)))
        plain = float(np.max(phi.evaluate(a)))
    le = lhs <= doubled or math.isclose(lhs, doubled, rel_tol=1e-12)
    eq = lhs == plain or math.isclose(lhs, plain, rel_tol=1e-12)
    return le, eq

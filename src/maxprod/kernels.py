"""Kernel catalog and admissibility diagnostics for lattice sampling operators.

A kernel is a bounded function on the real line plus the metadata needed to
truncate infinite lattice suprema with a certified error: either a compact
support radius, or a decay order ``alpha`` with a declared envelope whose
largest row ``C`` gives ``|chi(u)| <= C * |u|**-alpha`` away from the origin.

The catalog ships three families:

* ``fejer``            -- 0.5 * sinc(x/2)**2, non-negative, decay order 2
* ``vallee-poussin``   -- sin(x/2) sin(3x/2) / (9 x^2 / 4), signed lobes
* ``bspline:<k>``      -- central B-spline of order k (1 <= k <= 9), support
  [-k/2, k/2]

Two constants gate admissibility for the sampling operators: the moment of
order beta (finite for beta up to the decay order) and the infimum of the
kernel over a centered interval, [-3/2, 3/2] for bounded domains and
[-1/2, 1/2] for the whole line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quadrature
from .errors import TruncationError, UnknownNameError

# Moments of higher order than the certified decay are reported as inf.
DIVERGED = math.inf

_GRID = 4096
_REFINE_TOP = 8
_ZOOM = np.linspace(-1.0, 1.0, 9)  # one zoom round's offsets, in radii
_PERIOD = (0.0, 1.0)   # the outer sup of a moment: one lattice period
_MOMENT_FLOOR = 1e-7   # truncation floor; every catalog moment is far above
_L1_TOL = 1e-6   # the L1 norm's quadrature tolerance
# the paper's chi2 (bounded domains) and chi2' (the line) intervals
_INF_INTERVALS = {"interval": (-1.5, 1.5), "line": (-0.5, 0.5)}
# The alternating sum of a B-spline cancels more digits as the order grows:
# against exact rationals the error is 8.2e-13 at order 9 and 2.0e-12 at 10.
MAX_BSPLINE_ORDER = 9


@dataclass(eq=False)
class Kernel:
    """Evaluatable kernel with truncation certificates.

    A compact kernel must vanish at |u| >= R = ceil(support): the operator
    sweeps for u only the 2R columns k from floor(u) - R + 1 to
    floor(u) + R, and every other k has |u - k| >= R in floating point.
    A decay kernel declares ``envelope`` = (rows, slack): for integers k
    with |u - k| >= 1, row c = (a, b) bounds chi(u - k) |u - k|**decay_order
    by a + b cos(pi u) + slack (|u| + |k|) if k = c mod (len(rows) - 1), and
    the last row bounds its negative, which only the |chi| bound C uses: no
    negative term wins over means >= 0.  ``l1_norm``/``sup_norm`` hold known
    values when available: closed-form, except vallee-poussin's L1 norm,
    which is recorded from ``l1_norm`` and so good to its 1e-6 tolerance.
    Instances are treated as immutable after construction, which is what
    lets ``constants`` hold each lattice constant once computed.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    support: float | None = None
    decay_order: float | None = None
    envelope: tuple | None = field(default=None, repr=False)
    sup_norm: float | None = None
    l1_norm: float | None = None
    constants: dict = field(default_factory=dict, init=False, repr=False)


def _once_per_kernel(fn):
    """Memoize ``fn(kernel, *args)`` in ``kernel.constants``; the memo
    lives on the instance, so it goes away with the kernel."""

    @functools.wraps(fn)
    def wrapper(kernel, *args):
        key = (fn.__name__, *args)
        if key not in kernel.constants:
            kernel.constants[key] = fn(kernel, *args)
        return kernel.constants[key]

    return wrapper


@dataclass(frozen=True)
class KernelDiagnostics:
    """Computed admissibility report for one kernel."""

    kernel: str
    beta: float
    domain_kind: str
    m_beta: dict[float, float]
    a_chi_bounded: float
    a_chi_line: float
    satisfies_chi1: bool
    satisfies_chi2: bool
    satisfies_chi2_prime: bool
    admissible: bool


# ---------------------------------------------------------------------------
# catalog

def fejer() -> Kernel:
    """Fejer kernel 0.5 * sinc(x/2)**2 (sinc(t) = sin(pi t)/(pi t), 1 at 0)."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sinc(0.5 * x) ** 2

    # |chi(u)| = 2 sin^2(pi u / 2) / (pi u)^2 <= 2 / (pi u)^2 for all u != 0;
    # sin^2(pi (u - k) / 2) = (1 -+ cos(pi u)) / 2 for even / odd k, and the
    # slack covers the rounding of np.sinc's argument
    c = 1.0 / math.pi ** 2
    return Kernel("fejer", evaluate, support=None, decay_order=2.0,
                  sup_norm=0.5, l1_norm=1.0,
                  envelope=(((c, -c), (c, c), (0.0, 0.0)), 2e-14))


def de_la_vallee_poussin() -> Kernel:
    """de la Vallee-Poussin kernel sin(x/2) sin(3x/2) / (9x^2/4), 1/3 at 0.

    Takes negative values: the sign of sin(x/2) sin(3x/2) alternates.
    """

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < 1e-4
        safe = np.where(small, 1.0, x)
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = np.sin(0.5 * safe) * np.sin(1.5 * safe) / (2.25 * safe * safe)
        series = (1.0 - 5.0 * x * x / 12.0) / 3.0
        return np.where(small, series, vals)

    # |sin(x/2) sin(3x/2)| <= 1, hence |chi(u)| <= (4/9) |u|**-2 everywhere,
    # and sin(x/2) sin(3x/2) = (cos x - cos 2x) / 2 <= 9/16
    return Kernel("vallee-poussin", evaluate, support=None, decay_order=2.0,
                  sup_norm=1.0 / 3.0, l1_norm=1.0025109502563199,
                  envelope=(((0.25, 0.0), (4.0 / 9.0, 0.0)), 2e-14))


def bspline(order: int) -> Kernel:
    """Central B-spline of the given order; support [-order/2, order/2]."""
    if order not in range(1, MAX_BSPLINE_ORDER + 1):
        raise ValueError(f"B-spline order must be an integer in "
                         f"1..{MAX_BSPLINE_ORDER}, not {order!r}")
    n = int(order)
    half = 0.5 * n
    if n == 1:
        def evaluate(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= -0.5) & (x < 0.5), 1.0, 0.0)

        return Kernel("bspline:1", evaluate, support=0.5, sup_norm=1.0,
                      l1_norm=1.0)

    # the sum's last term, max(s - n, 0)**(n - 1), is always zero
    signs = [(-1.0) ** i * math.comb(n, i) for i in range(n)]
    fact = float(math.factorial(n - 1))

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        # clip into the support first: the alternating sum cancels only up
        # to rounding outside it, and huge arguments would overflow
        s = half + np.minimum(np.maximum(x, -half), half)
        acc = np.zeros_like(s)
        for i, c in enumerate(signs):
            term = np.maximum(s - i, 0.0)
            term **= n - 1
            term *= c
            acc += term
        return np.where(np.abs(x) >= half, 0.0, acc / fact)

    sup = float(evaluate(np.array(0.0)))
    return Kernel(f"bspline:{n}", evaluate, support=half, sup_norm=sup,
                  l1_norm=1.0)


def kernel_by_name(name: str) -> Kernel:
    """Resolve a catalog kernel from its CLI string."""
    key = name.strip().lower()
    if key == "fejer":
        return fejer()
    if key in ("vallee-poussin", "de-la-vallee-poussin"):
        return de_la_vallee_poussin()
    if key.startswith("bspline:"):
        try:
            return bspline(int(key.split(":", 1)[1]))
        except ValueError:
            raise UnknownNameError(f"B-spline order must be an integer in "
                                   f"1..{MAX_BSPLINE_ORDER}: {name!r}") from None
    raise UnknownNameError(f"unknown kernel: {name!r}")


# ---------------------------------------------------------------------------
# lattice moment machinery

def _zoom_max(fn, xs: np.ndarray, radius: float, lo: float,
              hi: float) -> float:
    """Maximum of the vectorized ``fn`` on the grid ``xs`` and near its peaks.

    The top grid points are refined together: each round evaluates ``fn`` on
    a local grid of half-width ``radius`` (clipped to [lo, hi]) around every
    candidate in one call, moves each candidate to its local argmax and
    shrinks the radius to one local step.  It stops at a relative radius of
    1e-9, where a smooth interior extremum is exact to rounding and going on
    would only sample cancellation noise.
    """
    vals = fn(xs)
    best = float(vals.max())
    centers = xs[np.argsort(vals)[-_REFINE_TOP:]]
    stop = 1e-9 * max(1.0, float(np.max(np.abs(centers))))
    while radius > stop:
        pts = np.clip(centers[:, None] + radius * _ZOOM, lo, hi)
        local = fn(pts.ravel()).reshape(pts.shape)
        best = max(best, float(local.max()))
        centers = pts[np.arange(pts.shape[0]), local.argmax(axis=1)]
        radius *= _ZOOM[1] - _ZOOM[0]
    return best


def _inner_sup(kernel: Kernel, beta: float, xs: np.ndarray,
               j_window: int) -> np.ndarray:
    """sup over lattice shifts k of |chi(x-k)| |x-k|**beta, |x-k| <= window."""
    k0 = math.floor(float(xs.min())) - j_window
    k1 = math.ceil(float(xs.max())) + j_window
    ks = np.arange(k0, k1 + 1, dtype=float)
    u = xs[:, None] - ks[None, :]
    g = np.abs(kernel.evaluate(u)) * np.abs(u) ** beta
    return g.max(axis=1)


def _outer_sup(kernel: Kernel, beta: float, j_window: int,
               interval: tuple[float, float]) -> float:
    """sup over x in ``interval`` of the inner lattice supremum."""
    lo, hi = interval
    return _zoom_max(lambda x: _inner_sup(kernel, beta, x, j_window),
                     np.linspace(lo, hi, _GRID, endpoint=False),
                     (hi - lo) / _GRID, lo, hi)


def _decay_coefficient(kernel: Kernel) -> float:
    """Coefficient C of the decay certificate |chi(u)| <= C |u|**-alpha,
    u != 0: the largest row of the declared envelope."""
    if kernel.decay_order is None:
        raise TruncationError(f"kernel {kernel.name!r} has no decay order")
    if kernel.envelope is None:
        raise TruncationError(f"decay kernel {kernel.name!r} declares no "
                              "envelope; its tails cannot be certified")
    return max(a + abs(b) for a, b in kernel.envelope[0])


def lattice_envelope(kernel: Kernel, u: np.ndarray, k_max: int) -> np.ndarray:
    """The rows of ``kernel.envelope`` at the points u, for |k| <= k_max."""
    _decay_coefficient(kernel)   # TruncationError without an envelope
    rows, slack = kernel.envelope
    a, b = np.array(rows).T[..., None]
    # without a phase the cosine would only add b cos(pi u) = 0 to a
    phase = np.cos(np.pi * u) if b.any() else 0.0
    return a + b * phase + slack * (np.abs(u) + k_max)


def _tail_limsup(kernel: Kernel, alpha: float) -> float:
    """Estimate of lim sup |chi(u)| |u|**alpha for |u| -> inf."""
    u = np.arange(64.0, 4096.0, 1.0 / 16.0)
    return _zoom_max(lambda x: np.abs(kernel.evaluate(x)) * np.abs(x) ** alpha,
                     np.concatenate([u, -u]), 0.1, -math.inf, math.inf)


def _tail_terms_grow(kernel: Kernel, beta: float) -> bool:
    """Detect growth of |chi(u)| |u|**beta over dyadic windows."""
    peaks = []
    for k in range(4, 20):
        u = np.linspace(2.0 ** k, 2.0 ** (k + 1), 2048)
        u = np.concatenate([u, -u])
        peaks.append(float(np.max(np.abs(kernel.evaluate(u)) * np.abs(u) ** beta)))
    return peaks[-1] > 10.0 * max(peaks[0], 1e-300)


@_once_per_kernel
def moment(kernel: Kernel, beta: float) -> float:
    """Generalized absolute moment of order ``beta``.

    This is the sup over x of the lattice supremum of |chi(x-k)| |x-k|**beta.
    Shifting x by an integer permutes the lattice, so the outer sup is taken
    over one period [0, 1).

    The inner supremum is truncated with a certified cutoff: terms at lattice
    distance >= U are bounded by C * U**(beta - alpha), and once that bound
    falls below the running supremum (or below ``_MOMENT_FLOOR``) the
    omitted terms cannot matter.  Compactly supported kernels are summed
    exactly.

    Returns ``math.inf`` when ``beta`` exceeds the decay order and the tail
    terms are observed to grow (divergent moment).
    """
    if beta < 0:
        raise ValueError("moment order beta must be >= 0")
    if kernel.support is not None:
        j_window = int(math.ceil(kernel.support)) + 2
        return _outer_sup(kernel, beta, j_window, _PERIOD)
    alpha = kernel.decay_order
    if alpha is None:
        raise TruncationError(
            f"kernel {kernel.name!r} declares neither support nor decay order; "
            "the lattice supremum cannot be truncated")
    c = _decay_coefficient(kernel)
    if beta > alpha:
        if _tail_terms_grow(kernel, beta):
            return DIVERGED
        raise TruncationError(
            f"moment of order {beta} is not certified finite for "
            f"{kernel.name!r} and no divergence was observed")
    if beta == alpha:
        # tail terms do not decay at the critical order; combine a finite
        # window with the sampled tail lim sup
        near = _outer_sup(kernel, beta, 64, _PERIOD)
        return max(near, _tail_limsup(kernel, alpha))
    coarse = _outer_sup(kernel, beta, 8, _PERIOD)
    floor_val = max(coarse, _MOMENT_FLOOR)
    cutoff = (c / floor_val) ** (1.0 / (alpha - beta))
    j_window = int(math.ceil(max(8.0, cutoff + 1.0)))
    if j_window > 65536:
        raise TruncationError(
            f"certified moment window for {kernel.name!r} exceeds 65536 cells")
    if j_window == 8:
        return coarse
    return _outer_sup(kernel, beta, j_window, _PERIOD)


@_once_per_kernel
def lower_bound_constant(kernel: Kernel, domain_kind: str) -> float:
    """Infimum of the kernel over the admissibility interval.

    [-3/2, 3/2] for ``"interval"`` (bounded domains), [-1/2, 1/2] for
    ``"line"``.  The returned value may be <= 0, which signals that the
    positivity condition fails; the caller decides how to treat it.
    """
    if domain_kind not in _INF_INTERVALS:
        raise ValueError(f"domain kind must be 'interval' or 'line', "
                         f"not {domain_kind!r}")
    lo, hi = _INF_INTERVALS[domain_kind]
    return -_zoom_max(lambda x: -kernel.evaluate(x),
                      np.linspace(lo, hi, _GRID + 1), (hi - lo) / _GRID, lo, hi)


def l1_norm(kernel: Kernel) -> float:
    """Numerical L1 norm of the kernel by adaptive Simpson quadrature, to
    ``_L1_TOL``.

    Compactly supported kernels are integrated exactly on their support.
    Decay kernels are integrated on a window [-U, U]; when the window the
    tolerance would demand is impractically wide, the remainder is added as
    an averaged-coefficient tail estimate (the mean of |chi(u)| |u|**alpha
    over a far window), whose error is O(C * U**-alpha).
    """

    def absfn(x):
        return np.abs(kernel.evaluate(x))

    if kernel.support is not None:
        s = kernel.support
        edges = np.linspace(-s, s, max(9, 4 * int(math.ceil(s)) + 1))
        return quadrature.adaptive(absfn, edges, atol=0.5 * _L1_TOL)
    alpha = kernel.decay_order
    if alpha is None or alpha <= 1.0:
        raise TruncationError(
            f"kernel {kernel.name!r} is not certified absolutely integrable")
    c = _decay_coefficient(kernel)
    u_bound = (4.0 * c / ((alpha - 1.0) * _L1_TOL)) ** (1.0 / (alpha - 1.0))
    u = min(u_bound, 4096.0)
    edges = np.linspace(-u, u, 2 * int(math.ceil(u)) + 1)
    main = quadrature.adaptive(absfn, edges, atol=0.25 * _L1_TOL)
    tail = 0.0
    if u < u_bound:
        us = np.arange(u, 3.0 * u, 1.0 / 64.0)
        c_avg = 0.5 * (np.mean(absfn(us) * us ** alpha)
                       + np.mean(absfn(-us) * us ** alpha))
        tail = 2.0 * float(c_avg) * u ** (1.0 - alpha) / (alpha - 1.0)
    return float(main + tail)


@_once_per_kernel
def ensure_l1(kernel: Kernel) -> float:
    """Known L1 norm of the kernel, else its computed one."""
    return kernel.l1_norm if kernel.l1_norm is not None else l1_norm(kernel)


def check_assumptions(kernel: Kernel, domain_kind: str,
                      beta: float) -> KernelDiagnostics:
    """Full admissibility diagnostics.

    A kernel is admissible for a domain kind when the moment of order
    ``beta`` is finite and the infimum over the matching centered interval
    is strictly positive.  A divergent moment is reported as a failed
    finiteness flag, not an error.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    a_chi = lower_bound_constant(kernel, domain_kind)
    m_map = {0.0: moment(kernel, 0.0)}
    if 1.0 not in (0.0, float(beta)):
        m_map[1.0] = moment(kernel, 1.0)
    m_map[float(beta)] = moment(kernel, float(beta))
    a_bounded = lower_bound_constant(kernel, "interval")
    a_line = lower_bound_constant(kernel, "line")
    chi1 = math.isfinite(m_map[float(beta)])
    chi2 = a_bounded > 0.0
    chi2p = a_line > 0.0
    return KernelDiagnostics(
        kernel=kernel.name, beta=float(beta), domain_kind=domain_kind,
        m_beta=m_map,
        a_chi_bounded=a_bounded, a_chi_line=a_line,
        satisfies_chi1=chi1, satisfies_chi2=chi2, satisfies_chi2_prime=chi2p,
        admissible=chi1 and a_chi > 0.0)

"""Max-product Kantorovich sampling operator and its linear counterpart.

The max-product operator divides a lattice supremum of kernel-weighted cell
means by the supremum of the kernel values themselves.  On a bounded
interval both suprema run over the finite index set J_n; on the real line
the numerator is finite because the signal has compact support (every other
cell mean vanishes, so the zero terms dominate negatives), and the
denominator window is truncated where the kernel decay bound drops below
``truncation_tol`` times the admissibility constant, which the running
maximum always reaches.

Kernel values enter the suprema with their sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InadmissibleKernelError, TruncationError
from .kernels import Kernel, _decay_coefficient, admissible_a_chi
from .signals import (Domain, MeanValueTable, Signal, cell_means, iceil,
                      ifloor, mean_values)

_CHUNK = 4096


@dataclass(frozen=True)
class OperatorConfig:
    """Frozen evaluation policy: kernel, scale, domain and truncation."""

    kernel: Kernel
    n: int
    domain: Domain
    a_chi: float
    truncation_tol: float = 1e-3

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("scale n must be a positive integer")
        if not self.a_chi > 0.0:
            raise InadmissibleKernelError(
                f"kernel {self.kernel.name!r} has lower-bound constant "
                f"{self.a_chi}; the operator requires it to be positive")
        if not self.truncation_tol > 0.0:
            raise ValueError("truncation_tol must be positive")
        if self.domain is not None and not self.domain[0] < self.domain[1]:
            raise ValueError("domain must be a nondegenerate interval")

    @property
    def domain_kind(self) -> str:
        return "line" if self.domain is None else "interval"


def operator_config(kernel: Kernel, n: int, domain: Domain,
                    truncation_tol: float = 1e-3,
                    a_chi: float | None = None) -> OperatorConfig:
    """Build a config, computing the admissibility constant when not given.

    Passing ``a_chi`` explicitly is the opt-in for kernels whose infimum over
    the standard interval is not positive but whose lattice suprema are still
    bounded below on the concrete domain (e.g. compactly supported kernels on
    a grid-aligned interval).
    """
    if a_chi is None:
        a_chi = admissible_a_chi(kernel,
                                 "line" if domain is None else "interval")
    return OperatorConfig(kernel=kernel, n=int(n), domain=domain, a_chi=a_chi,
                          truncation_tol=truncation_tol)


def _denominator_window(config: OperatorConfig) -> int:
    """Lattice half-width for the denominator supremum.

    Terms at distance >= w satisfy |chi| <= C w**-alpha < truncation_tol *
    a_chi, and the window's central term already reaches a_chi, so omitted
    terms cannot alter the supremum (the tolerance only adds margin on top
    of the certified-coefficient estimate).
    """
    ker = config.kernel
    if ker.support is not None:
        return int(math.ceil(ker.support)) + 1
    alpha = ker.decay_order
    if alpha is None:
        raise TruncationError(
            f"kernel {ker.name!r} has no truncation certificate")
    c = _decay_coefficient(ker)
    w = (c / (config.a_chi * config.truncation_tol)) ** (1.0 / alpha)
    return min(int(math.ceil(w)) + 1, 1_000_000)


def evaluate_with_table_den(config: OperatorConfig, table: MeanValueTable,
                            xs) -> tuple[np.ndarray, float]:
    """Operator values plus the smallest denominator encountered."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = config.n
    ker = config.kernel
    out = np.empty(xs.shape, dtype=float)
    den_min = math.inf
    ks = np.arange(table.k_lo, table.k_hi + 1, dtype=float)
    if config.domain is not None:
        a, b = config.domain
        if np.any(xs < a - 1e-9) or np.any(xs > b + 1e-9):
            raise ValueError(
                "evaluation points must lie inside the bounded domain")
        for start in range(0, xs.size, _CHUNK):
            x = xs[start:start + _CHUNK]
            chi = np.asarray(ker.evaluate(n * x[:, None] - ks[None, :]))
            num = np.max(chi * table.values[None, :], axis=1)
            den = np.max(chi, axis=1)
            if np.any(den <= 0.0):
                raise InadmissibleKernelError(
                    f"nonpositive lattice supremum for kernel "
                    f"{ker.name!r} at scale n={n}")
            den_min = min(den_min, float(den.min()))
            out[start:start + _CHUNK] = num / den
        return out, den_min
    # real line: the numerator ranges over the (finite) support cells, with
    # the implicit zero means capping it below at 0; the denominator window
    # is centered on the nearest lattice point
    w = _denominator_window(config)
    offs = np.arange(-w, w + 1, dtype=float)
    floor_guard = config.a_chi * (1.0 - 1e-9)
    for start in range(0, xs.size, _CHUNK):
        x = xs[start:start + _CHUNK]
        chi_num = np.asarray(ker.evaluate(n * x[:, None] - ks[None, :]))
        num = np.max(chi_num * table.values[None, :], axis=1)
        num = np.maximum(num, 0.0)
        kc = np.rint(n * x)
        chi_den = np.asarray(ker.evaluate((n * x - kc)[:, None] - offs[None, :]))
        den = np.max(chi_den, axis=1)
        if np.any(den < floor_guard):
            raise InadmissibleKernelError(
                f"lattice supremum fell below the admissibility constant "
                f"{config.a_chi:.3e} (truncation too aggressive?)")
        den_min = min(den_min, float(den.min()))
        out[start:start + _CHUNK] = num / den
    return out, den_min


def maxprod_kantorovich_grid(config: OperatorConfig, f: Signal,
                             xs) -> np.ndarray:
    """Vectorized operator evaluation; the mean table is built once."""
    if not f.nonneg:
        raise ValueError(
            f"signal {f.name!r} is not non-negative; wrap it with "
            "shift_wrapper to handle functions bounded from below")
    table = mean_values(f, config.n, config.domain_kind,
                        interval=config.domain)
    return evaluate_with_table_den(config, table, xs)[0]


def maxprod_kantorovich(config: OperatorConfig, f: Signal, x: float) -> float:
    """Operator value at a single point (same code path as the grid form)."""
    return float(maxprod_kantorovich_grid(config, f, [x])[0])


def shift_wrapper(config: OperatorConfig, f: Signal) -> Callable:
    """Operator closure for signals bounded below: K_n(f - c) + c.

    ``c`` is the signal's declared infimum.  The shifted signal loses its
    compact support unless c == 0, so on the real line the wrapper is only
    usable for genuinely non-negative-after-shift compact signals.
    """
    c = f.inf_value
    if c is None:
        raise ValueError(
            f"signal {f.name!r} has no declared infimum; shift_wrapper "
            "needs inf_value to recentre the signal")
    base = f.evaluate
    shifted = Signal(name=f"{f.name}+shift", evaluate=lambda t: base(t) - c,
                     domain=f.domain,
                     support=f.support if c == 0.0 else None,
                     breakpoints=f.breakpoints, kinks=f.kinks,
                     nonneg=True, inf_value=0.0)
    state: dict = {}

    def wrapped(x):
        if "table" not in state:
            state["table"] = mean_values(shifted, config.n,
                                         config.domain_kind,
                                         interval=config.domain)
        vals = evaluate_with_table_den(config, state["table"], x)[0] + c
        return float(vals[0]) if np.isscalar(x) else vals

    return wrapped


# ---------------------------------------------------------------------------
# linear comparison operator

def _linear_cells(w: float, f: Signal) -> tuple[int, int]:
    if f.support is not None:
        return ifloor(w * f.support[0]) - 1, iceil(w * f.support[1])
    if f.domain is not None:
        a, b = f.domain
        k_lo, k_hi = iceil(w * a), ifloor(w * b) - 1
        if k_lo > k_hi:
            raise TruncationError(
                f"no lattice cells for scale w={w} on [{a}, {b}]")
        return k_lo, k_hi
    raise TruncationError(
        "linear operator needs a compactly supported or bounded-domain "
        "signal to truncate its series")


def linear_kantorovich_grid(kernel: Kernel, w: float, f: Signal,
                            xs) -> np.ndarray:
    """Linear Kantorovich series sum_k chi(w x - k) * mean_k on a grid.

    The series is truncated to the cells where the mean can be nonzero
    (signal support, or the bounded domain's index set), which makes the
    truncation exact: omitted terms are kernel values times zero means.
    """
    if w <= 0:
        raise ValueError("scale w must be positive")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    k_lo, k_hi = _linear_cells(w, f)
    means = cell_means(f, w, k_lo, k_hi)
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    out = np.empty(xs.shape, dtype=float)
    for start in range(0, xs.size, _CHUNK):
        x = xs[start:start + _CHUNK]
        chi = np.asarray(kernel.evaluate(w * x[:, None] - ks[None, :]))
        out[start:start + _CHUNK] = chi @ means
    return out


def linear_kantorovich(kernel: Kernel, w: float, f: Signal, x: float) -> float:
    return float(linear_kantorovich_grid(kernel, w, f, [x])[0])

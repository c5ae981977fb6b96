"""Dense reference evaluator for the max-product operator (test oracle).

Every point is evaluated against every cell of the mean table, in fixed
chunks of 4096 rows, with a separate real-line branch whose denominator
window is centred on the nearest lattice point.  The differential tests
compare the banded ``operators.evaluate_with_table_den`` against it.
"""

from __future__ import annotations

import math

import numpy as np

from maxprod.errors import InadmissibleKernelError, TruncationError
from maxprod.kernels import _decay_coefficient
from maxprod.operators import OperatorConfig
from maxprod.signals import MeanValueTable

_CHUNK = 4096
# Relative size of the terms the line denominator window leaves out.
_TOL = 1e-3


def _denominator_window(config: OperatorConfig) -> int:
    """Lattice half-width for the denominator supremum.

    Terms at distance >= w satisfy |chi| <= C w**-alpha < _TOL * a_chi,
    and the window's central term already reaches a_chi, so omitted
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
    w = (c / (config.a_chi * _TOL)) ** (1.0 / alpha)
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
            num = np.max(chi * table.values[None, :], axis=1) + 0.0
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

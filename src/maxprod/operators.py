"""Max-product Kantorovich sampling operator and its linear counterpart.

K_n f(x) = sup_k chi(n x - k) mean_k / sup_k chi(n x - k), signs kept, over
J_n on an interval, or over Z on the line with zero means off the support;
the denominator is the numerator of a table of ones, swept with the tables.
Each point first takes a window of columns around floor(n x), shifted to stay
in J_n, in chunks of at most ``_BUDGET`` elements.  A compact kernel's window
of 2r + 1 columns holds its whole support.  A decay kernel's row takes all of
J_n when |J_n| <= 2r + 1 + ``_BLOCK``, else a core of 2r + 1 columns, where
C r**-alpha <= a_chi / 4, and then searches the ``_BLOCK``-column blocks: the
kernel's signed, phase-aware envelope at u = n x, times a run of blocks' max
|mean| per class of k and sign, times max(d, r)**-alpha bounds the run's terms
d away.  From rings of runs widening outward from its block, each table dives
to one block along the best bounds, then splits every run whose bound beats
its numerator, down to the blocks it sweeps.  Skipped columns cannot win and
max is exact, so each row of a stack of tables (``MeanValueTable.stack``) is
bitwise its own table's evaluation over the whole lattice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InadmissibleKernelError, TruncationError
from .kernels import (Kernel, _decay_coefficient, lattice_envelope,
                      lower_bound_constant)
from .signals import (Domain, MeanValueTable, Signal, cell_means, iceil,
                      ifloor, mean_values)

# Elements (rows x lattice columns) of one kernel-evaluation chunk, which
# sets the size of every temporary whatever n or the point count.
_BUDGET = 1 << 14
# Lattice columns per block of the decay-kernel pruning stage.
_BLOCK = 16
# Heap levels of one step of the block search: a run splits into 2**_SPLIT.
_SPLIT = 3


@dataclass(frozen=True)
class OperatorConfig:
    """Frozen evaluation policy: kernel, scale, domain and a_chi."""

    kernel: Kernel
    n: int
    domain: Domain
    a_chi: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("scale n must be a positive integer")
        if not self.a_chi > 0.0:
            raise InadmissibleKernelError(
                f"kernel {self.kernel.name!r} is inadmissible: its "
                f"lower-bound constant {self.a_chi:.3e} is not positive")
        if self.domain is not None and not self.domain[0] < self.domain[1]:
            raise ValueError("domain must be a nondegenerate interval")


def operator_config(kernel: Kernel, n: int, domain: Domain,
                    a_chi: float | None = None) -> OperatorConfig:
    """Build a config, computing the admissibility constant when not given:
    the kernel's infimum on [-3/2, 3/2] on an interval, on [-1/2, 1/2] on
    the line.

    Passing ``a_chi`` explicitly is the opt-in for kernels whose infimum over
    the standard interval is not positive but whose lattice suprema are still
    bounded below on the concrete domain (e.g. compactly supported kernels on
    a grid-aligned interval).
    """
    if a_chi is None:
        a_chi = lower_bound_constant(kernel,
                                     "line" if domain is None else "interval")
    return OperatorConfig(kernel=kernel, n=int(n), domain=domain, a_chi=a_chi)


def _radius(config: OperatorConfig) -> int:
    """Half-width r of a row's core: chi vanishes past it for a compact
    kernel, and |chi| <= C r**-alpha <= a_chi / 4 for a decay kernel."""
    ker = config.kernel
    if ker.support is not None:  # the extra column is a zero term
        return int(math.ceil(ker.support)) + 1
    c, alpha = _decay_coefficient(ker), ker.decay_order  # TruncationError
    return max(1, math.ceil((4.0 * c / config.a_chi) ** (1.0 / alpha)))


def _sweep(config: OperatorConfig, padded: np.ndarray, k_lo: int,
           u: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Suprema of chi * mean, one row per row of ``padded``, for each point
    u = n x over the ``width`` columns from its start.  ``padded`` holds the
    tables with a cell at each end, which every column off the tables reads:
    zero, and one in the table of ones."""
    cols = np.arange(width)[:, None]
    out = np.empty((padded.shape[0], u.size))
    step = max(1, _BUDGET // (width * padded.shape[0]))
    for s in range(0, u.size, step):
        ks = starts[s:s + step] + cols
        chi = np.asarray(config.kernel.evaluate(u[s:s + step] - ks))
        means = np.take(padded, ks - (k_lo - 1), axis=1, mode="clip")
        out[:, s:s + step] = (chi * means).max(1)
    return out


def _visit_blocks(config: OperatorConfig, r: int, table: MeanValueTable,
                  padded: np.ndarray, u: np.ndarray,
                  sweep: np.ndarray) -> None:
    """Raise each row of ``sweep`` by the blocks that could still win."""
    ker, alpha, k_lo, k_hi = config.kernel, config.kernel.decay_order, \
        table.k_lo, table.k_hi
    means = padded[:, 1:-1]
    bw = min(_BLOCK, means.shape[1])
    starts = np.minimum(np.arange(k_lo, k_hi + 1, _BLOCK), k_hi - bw + 1)
    nb, margin = starts.size, 1.0 + 1e-9   # the last block overlaps
    env_r = _decay_coefficient(ker) * r ** -alpha * margin
    groups = len(ker.envelope[0])   # k mod groups - 1, then negative means
    need = sweep < env_r * np.abs(means).max(1)[:, None]
    # per table, a heap over the blocks of max |mean| per envelope row, and
    # of minus the first and of the last column of a nonzero mean
    cls, nz = np.arange(k_lo, k_hi + 1) % (groups - 1), means != 0
    top = _SPLIT * max(1, -(-(nb - 1).bit_length() // _SPLIT))
    heap = np.full((len(means), groups + 2, 2 << top), -math.inf)
    heap[..., 1 << top:(1 << top) + nb] = np.stack([np.maximum.reduceat(
        np.where(cls == c, means, 0.0), starts - k_lo, axis=1)
        for c in range(groups - 1)] + [
            np.maximum.reduceat(-means, starts - k_lo, axis=1).clip(0.0),
            -np.maximum(starts, k_lo + nz.argmax(1)[:, None]),
            np.minimum(starts + bw - 1, k_hi - nz[:, ::-1].argmax(1)[:, None])
        ], axis=1)
    for lv in range(top - 1, -1, -1):   # node h: max of nodes 2h, 2h + 1
        heap[..., 1 << lv:2 << lv] = np.maximum(
            heap[..., 2 << lv:4 << lv:2], heap[..., (2 << lv) + 1:4 << lv:2])
    # a row's first nodes, rings of growing width outward from its home
    # block: at each level l = 0, _SPLIT, ... the fan nodes under the home
    # block's ancestor at l + _SPLIT, less its own ancestor at l > 0
    fan, end = 1 << _SPLIT, (1 << top) + nb
    lv, kid = np.repeat(np.arange(0, top, _SPLIT), fan), np.arange(fan)

    def bound(q, h):
        """Bound on the terms of table t in heap node h for chunk row q."""
        d = np.maximum(np.maximum(-hp[-2].take(h) - x[q],
                                  x[q] - hp[-1].take(h)), r)
        return functools.reduce(np.maximum, (
            hp[g].take(h) * cp[g].take(q) for g in range(groups))) / (
                d ** alpha)

    for t, hp in enumerate(heap):
        todo = np.flatnonzero(need[t])
        for s in range(0, todo.size, _BUDGET // lv.size):
            rows = todo[s:s + _BUDGET // lv.size]
            x = u[rows]
            cp = lattice_envelope(ker, x, max(-k_lo, k_hi)) * margin
            home = (end - nb) + np.clip(
                (np.floor(x).astype(np.int64) - k_lo) // _BLOCK, 0, nb - 1)
            h = home[:, None] >> lv + _SPLIT << _SPLIT | np.tile(
                kid, top // _SPLIT)
            q, f = np.nonzero((h << lv < end)
                              & ((lv == 0) | (h != home[:, None] >> lv)))
            first = (q, h[q, f], lv[f], bound(q, h[q, f]))
            dived = np.full(rows.size, -1)   # the block each row dived to
            # a dive follows each row's best node down to one block; then
            # every node whose bound beats the numerator splits
            for dive in (True, False):
                stack = [first]
                while stack:
                    q, h, j, bd = stack.pop()
                    bd = bound(q, h) if bd is None else bd
                    keep = bd > sweep[t].take(rows[q])
                    if dive:
                        best = np.full(rows.size, -math.inf)
                        np.maximum.at(best, q, bd)
                        keep &= bd >= best[q]
                    leaf = keep & (j == 0) & (h != dived[q])
                    np.maximum.at(sweep, (slice(None), rows[q[leaf]]), _sweep(
                        config, padded, k_lo, x[q[leaf]],
                        starts[h[leaf] - end + nb], bw))
                    if dive:
                        dived[q[leaf]] = h[leaf]
                    split = np.flatnonzero(keep & (j > 0))
                    for k in range(0, split.size, _BUDGET // fan):
                        sp = split[k:k + _BUDGET // fan]
                        h2 = (h[sp, None] << _SPLIT | kid).ravel()
                        j2 = np.repeat(j[sp] - _SPLIT, fan)
                        ok = h2 << j2 < end   # children over the table
                        stack.append((np.repeat(q[sp], fan)[ok], h2[ok],
                                      j2[ok], None))


def evaluate_with_table_den(config: OperatorConfig, table: MeanValueTable,
                            xs) -> tuple[np.ndarray, float]:
    """Operator values plus the smallest denominator encountered.

    A table whose ``values`` has shape (T, cells), as built by
    :meth:`MeanValueTable.stack`, gives values of shape (T, points) from one
    sweep: chi, the denominator and its certificate are computed once for
    all T tables.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"evaluation points must be 1-D, not {xs.shape}")
    u = config.n * xs.ravel()
    a, b = config.domain or (-math.inf, math.inf)
    if not np.all((xs >= a - 1e-9) & (xs <= b + 1e-9) & (abs(u) < 2.0 ** 52)):
        raise ValueError("evaluation points must be finite and inside the "
                         "domain, with |n x| < 2**52")
    ker, r = config.kernel, _radius(config)
    lo, hi = (table.k_lo, table.k_hi) if config.domain else (-2**62, 2**62)
    size, compact = hi - lo + 1, ker.support is not None
    # a pruned row pays the core and at least one block, so a decay kernel
    # prunes only where J_n is wider than that
    prune = not compact and size > 2 * r + 1 + _BLOCK
    width = min(2 * r + 1, size) if compact or prune else size
    first = np.clip(np.floor(u).astype(np.int64) - r, lo, hi - width + 1)
    means = np.atleast_2d(table.values)
    padded = np.ones((len(means) + 1, means.shape[1] + 2))
    padded[:-1] = np.pad(means, ((0, 0), (1, 1)))
    sweep = _sweep(config, padded, table.k_lo, u, first, width)
    if prune:
        _visit_blocks(config, r, table, padded, u, sweep)
    num, den = sweep[:-1], sweep[-1]
    den_min = float(den.min(initial=math.inf))
    # on the line this also certifies the columns never evaluated: each lies
    # farther than r from u, where |chi| <= a_chi / 4
    if den_min <= (0.0 if config.domain else config.a_chi * (1.0 - 1e-9)):
        raise InadmissibleKernelError(
            f"lattice supremum {den_min:.3e} at n={config.n} is too small")
    # + 0.0: a zero supremum is +0.0 whatever order numpy reduced in
    values = (num + 0.0 if config.domain else np.maximum(num, 0.0)) / den
    return (values if table.values.ndim == 2 else values[0]), den_min


def maxprod_kantorovich_grid(config: OperatorConfig, f: Signal,
                             xs) -> np.ndarray:
    """Vectorized operator evaluation; the mean table is built once."""
    if not f.nonneg:
        raise ValueError(
            f"signal {f.name!r} is not non-negative; wrap it with "
            "shift_wrapper to handle functions bounded from below")
    table = mean_values(f, config.n, config.domain)
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
            state["table"] = mean_values(shifted, config.n, config.domain)
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
    rows = max(1, _BUDGET // ks.size)
    for start in range(0, xs.size, rows):
        x = xs[start:start + rows]
        chi = np.asarray(kernel.evaluate(w * x[:, None] - ks[None, :]))
        out[start:start + rows] = chi @ means
    return out


def linear_kantorovich(kernel: Kernel, w: float, f: Signal, x: float) -> float:
    return float(linear_kantorovich_grid(kernel, w, f, [x])[0])

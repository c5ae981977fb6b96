"""Max-product Kantorovich sampling operator.

K_n f(x) = sup_k chi(n x - k) m_k / sup_k chi(n x - k), means m_k >= 0, over
J_n on an interval, or over Z on the line with zero means off the support;
the denominator is the numerator of a table of ones, swept with the tables.
Points enter as ``LatticeNodes``, u = n x = cell + o with cell = rint(u)
exactly, so chi(o - (k - cell)) is chi(u - k) to the bit.  Each sweeps a
window of columns from floor(u), shifted into J_n, in chunks of ``_BUDGET``
elements, reading chi from a table of chi(o - d), d = k - cell, where it
holds fewer values than the pairs it serves, else per pair.  A compact
kernel's window is its support's 2r columns.  A decay kernel takes all of
J_n when |J_n| <= 2r + 1 + ``_BLOCK``, else a core of 2r + 1 columns,
C r**-alpha <= a_chi / 4, then what its lattice envelope cannot rule out.
A row past all of a table's nonzero cells tries the table's edge block, then
line hulls; the rest search blocks, where the kernel's phase-aware envelope
at u, times a run of blocks' max mean per class of k, times
max(d, r)**-alpha bounds the run's terms d away.
Skipped columns cannot win and max is exact, so each row of a stack of
tables (``MeanValueTable.stack``) is bitwise its table's dense evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleKernelError, InvalidInputError
from .kernels import (Kernel, _decay_coefficient, lattice_envelope,
                      lower_bound_constant)
from .quadrature import LatticeNodes
from .signals import (Domain, MeanValueTable, Signal, mean_values,
                      positive_scale)

# Elements (rows x lattice columns) of one kernel-evaluation chunk, which
# sets the size of every temporary whatever n or the point count.
_BUDGET = 1 << 14
# Lattice columns per block of the decay-kernel pruning stage.
_BLOCK = 16
# Heap levels of one step of the block search: a run splits into 2**_SPLIT.
_SPLIT = 3
# Relative margin of every envelope bound over the rounding of chi.
_MARGIN = 1.0 + 1e-9
# Hull neighbours either side of a row's largest bound that the one-sided
# certificate may sweep too, where the far field is flat.
_TIES = 8


@dataclass(frozen=True)
class OperatorConfig:
    """Frozen evaluation policy: kernel, scale, domain and a_chi."""

    kernel: Kernel
    n: int
    domain: Domain
    a_chi: float

    def __post_init__(self):
        positive_scale(self.n)
        if not self.a_chi > 0.0:
            raise InadmissibleKernelError(
                f"kernel {self.kernel.name!r} is inadmissible: its "
                f"lower-bound constant {self.a_chi:.3e} is not positive")
        if self.domain is not None and not self.domain[0] < self.domain[1]:
            raise InvalidInputError("domain must be a nondegenerate interval")


def operator_config(kernel: Kernel, n: int, domain: Domain,
                    a_chi: float | None = None) -> OperatorConfig:
    """Build a config.  ``a_chi`` defaults to the kernel's infimum on
    [-3/2, 3/2] on an interval, on [-1/2, 1/2] on the line; pass it for a
    kernel whose lattice suprema stay positive where that infimum is not."""
    if a_chi is None:
        a_chi = lower_bound_constant(kernel,
                                     "line" if domain is None else "interval")
    return OperatorConfig(kernel, positive_scale(n), domain, a_chi)


def _radius(config: OperatorConfig) -> int:
    """Half-width r of a row's core: chi vanishes at |u| >= r for a compact
    kernel, and |chi| <= C r**-alpha <= a_chi / 4 for a decay kernel."""
    ker = config.kernel
    if ker.support is not None:
        return int(math.ceil(ker.support))
    c, alpha = _decay_coefficient(ker), ker.decay_order  # TruncationError
    return max(1, math.ceil((4.0 * c / config.a_chi) ** (1.0 / alpha)))


def _sweep(padded: np.ndarray, k_lo: int, chi, starts: np.ndarray,
           shifts: np.ndarray, width: int) -> np.ndarray:
    """Suprema of chi * mean, one row per row of ``padded``, for each point
    over the ``width`` columns from its start, whose shifts k - cell start
    at ``shifts``, with chi(rows, d) the kernel at shifts d of the points
    rows.  ``padded`` holds the tables with a cell at each end, which every
    column off the tables reads: zero, and one in the table of ones."""
    cols = np.arange(width)[:, None]
    out = np.empty((padded.shape[0], starts.size))
    step = max(1, _BUDGET // (width * padded.shape[0]))
    for s in range(0, starts.size, step):
        rows = slice(s, s + step)
        means = padded.take(starts[rows] + (cols + 1 - k_lo), 1, mode="clip")
        means *= chi(rows, shifts[rows] + cols)
        out[:, rows] = means.max(1)
    return out


def _hull_layers(a: np.ndarray, w: np.ndarray) -> list[tuple]:
    """Upper envelope over c >= 0 of the lines a + w c, listed by decreasing
    a, and the envelope of the lines off it.  Per layer: the index of its
    lines; their a and w between _TIES + 2 lines at -inf on either side; the
    c where each meets the next, and the envelope's value there."""
    layers, off = [], np.ones(a.size, dtype=bool)
    for _ in range(2):
        rest = np.flatnonzero(off)
        # a line under a steeper one listed before it never reaches the top
        stair = rest[w[rest] > np.maximum.accumulate(
            np.concatenate(([0.0], w[rest])))[:-1]]
        al, wl, top = a[stair].tolist(), w[stair].tolist(), []
        for j, (aj, wj) in enumerate(zip(al, wl)):
            # drop the last line while the new one meets the one before it
            # no later than the last one does
            while len(top) > 1 and ((al[top[-2]] - aj) * (
                    wl[top[-1]] - wl[top[-2]]) <= (al[top[-2]] - al[top[-1]])
                    * (wj - wl[top[-2]])):
                top.pop()
            top.append(j)
        hull = stair[top]
        off[hull] = False
        ha, hw = a[hull], w[hull]
        cuts = (ha[:-1] - ha[1:]) / (hw[1:] - hw[:-1])
        layers.append((hull, np.pad(ha, _TIES + 2, constant_values=-math.inf),
                       np.pad(hw, _TIES + 2), cuts, ha[:-1] + hw[:-1] * cuts))
    return layers


def _settle_one_sided(config: OperatorConfig, r: int, table: MeanValueTable,
                      padded: np.ndarray, u: np.ndarray, nodes: LatticeNodes,
                      sweep: np.ndarray, need: np.ndarray) -> None:
    """Clear ``need`` for the rows past all the nonzero cells of their table,
    more than r columns off, that its edge block or two layers of line hulls
    settle.

    From the table's nonzero edge e on u's side, v = +-(u - e) > r.  All
    columns but the _BLOCK nearest e lie v + _BLOCK or more from u, so a row
    that sweeps those settles once its numerator reaches top C(u)
    (v + _BLOCK)**-alpha, with top their largest mean and C(u) the largest
    positive-part envelope row; only rows within reach of that bound try.
    If the envelope has a phase (else the hull cells would mostly fall short
    of it), the rest try the hulls: with a = +-(k - e) <= 0, a cell's bound
    E(u) m_k |u - k|**-alpha <= T reads a + m_k**(1/alpha) c <= v,
    c = (E(u) / T)**(1/alpha): one line in c per cell of each envelope group.
    The head, the line on top where the group's envelope meets v, is its cell
    of the largest bound and is swept; with T the numerator then, the row
    settles when every other line stays below v at c, less 2**-40 (v + the
    nonzero span).  Where the far field is flat the head's neighbours tie
    with it within the margin, so a row that settles without _TIES hull
    neighbours on either side sweeps them too.
    """
    ker, k_lo = config.kernel, table.k_lo
    loose = not any(b for _, b in ker.envelope[0])
    alpha, groups = ker.decay_order, len(ker.envelope[0]) - 1
    cls = np.arange(k_lo, table.k_hi + 1) % groups
    k_max = max(-k_lo, table.k_hi)
    for t in np.flatnonzero(need[:-1].any(1)):   # each with a nonzero mean
        row = padded[t, 1:-1]
        nz = np.flatnonzero(row)
        for sign, edge in ((1, nz[-1]), (-1, nz[0])):
            e, span = k_lo + edge, nz[-1] - nz[0]
            rows = np.flatnonzero(need[t] & ((u > e + r) if sign > 0
                                             else (u < e - r)))
            lo, hi = (max(edge + 1 - _BLOCK, 0), edge + 1) if sign > 0 \
                else (edge, min(edge + _BLOCK, row.size))   # the edge block
            top = max(row[:lo].max(initial=0.0), row[hi:].max(initial=0.0))
            # reach: near_max v**-alpha >= top (v + _BLOCK)**-alpha
            q = rows[((top / row[lo:hi].max()) ** (1.0 / alpha) - 1.0) * sign
                     * (u[rows] - e) <= _BLOCK]
            if q.size:
                x, at = nodes.cells[q], np.full(q.size, k_lo + lo)
                chi = nodes.chi(ker, at[0] - x.max(), at[0] + hi - lo - 1
                                - x.min(), q.size * (hi - lo))
                sweep[t, q] = num = np.maximum(sweep[t, q], _sweep(
                    padded[t:t + 1], k_lo, lambda i, d: chi(q[i], d), at,
                    at - x, hi - lo)[0])
                bound = top * _MARGIN * lattice_envelope(ker, u[q], k_max)
                need[t, q] = (num <= 0.0) | (num < bound[:-1].max(0) / (
                    sign * (u[q] - e) + _BLOCK) ** alpha)
                rows = rows[need[t, rows]]
            if loose or not rows.size:
                continue
            cells, hulls = nz[::-sign], []   # by distance from the edge
            for g in range(groups):
                sel = cells[cls[cells] == g]
                if sel.size:   # the group, its two layers, its hull's cells
                    one, two = _hull_layers(sign * (sel - edge).astype(float),
                                            row[sel] ** (1.0 / alpha))
                    hull = np.pad(sel[one[0]], _TIES + 2, mode="edge")
                    hulls.append((g, one, two, k_lo + hull, row[hull]))

            def swept(q, j):
                """Raise rows q by each group's hull cell j, chi per pair."""
                ks, ms = (np.array([h[i][jg] for h, jg in zip(hulls, j)])
                          for i in (3, 4))
                chi = nodes.chi(ker, 0, 0, 0)(q, ks - nodes.cells[q])
                sweep[t, q] = np.maximum(sweep[t, q], (chi * ms).max(0))
                return sweep[t, q]

            def fit():
                """Whether the chunk's rows settle once the cells within
                _TIES, and within 0, of each head are swept.  Along a hull
                the lines at c rise to a top and fall after it, so a line
                that tops both its neighbours tops its hull, and where the
                first hull's top lies in the window the lines next to the
                window top the rest of it.  The cuts, which rounding may
                misplace, only pick which lines to test."""
                ok = [num > 0.0] * 2
                for (_, (_, a1, w1, cut1, _), (_, a2, w2, cut2, _), _, _), j, \
                        cg in zip(hulls, heads, c):
                    at, k = (_TIES + 2 + np.searchsorted(cut, cg)
                             for cut in (cut1, cut2))
                    with np.errstate(invalid="ignore"):   # 0 * inf at T = 0
                        l1, t1, r1, *out = (a1[p] + w1[p] * cg for p in (
                            at - 1, at, at + 1, j - _TIES - 1, j + _TIES + 1,
                            j - 1, j + 1))
                        l2, t2, r2 = (a2[p] + w2[p] * cg
                                      for p in (k - 1, k, k + 1))
                    ok = [o & (l1 <= t1) & (r1 <= t1) & (l2 <= t2) & (
                        r2 <= t2) & (t2 <= lim) & (np.where(abs(at - j) <= w,
                        np.maximum(*out[i:i + 2]), t1) <= lim)
                        for o, w, i in zip(ok, (_TIES, 0), (0, 2))]
                return ok

            step = _BUDGET // len(hulls)
            for s in range(0, rows.size, step):
                q = rows[s:s + step]
                v = sign * (u[q] - e)
                heads = np.array([_TIES + 2 + np.searchsorted(h[1][4], v)
                                  for h in hulls])
                num = swept(q, heads)
                env = lattice_envelope(ker, u[q], k_max)[
                    [h[0] for h in hulls]] * _MARGIN
                with np.errstate(all="ignore"):   # where T = 0 it fails
                    c = (np.maximum(env, 0.0) / num) ** (1.0 / alpha)
                lim = v - 2.0 ** -40 * (v + span)
                ok, snug = fit()
                wide = np.flatnonzero(ok & ~snug)
                for d in range(-_TIES, _TIES + 1) if wide.size else ():
                    swept(q[wide], heads[:, wide] + d)
                need[t, q[ok]] = False


def _visit_blocks(config: OperatorConfig, r: int, table: MeanValueTable,
                  padded: np.ndarray, u: np.ndarray, nodes: LatticeNodes,
                  sweep: np.ndarray) -> None:
    """Raise each row of ``sweep`` by the blocks that could still win: from
    rings of runs widening outward from its block, each table dives to one
    block along the best bounds, then splits every run that still could."""
    ker, alpha, k_lo, k_hi = config.kernel, config.kernel.decay_order, \
        table.k_lo, table.k_hi
    means, bw = padded[:, 1:-1], min(_BLOCK, padded.shape[1] - 2)
    starts = np.minimum(np.arange(k_lo, k_hi + 1, _BLOCK), k_hi - bw + 1)
    nb = starts.size   # the last block overlaps
    env_r = _decay_coefficient(ker) * r ** -alpha * _MARGIN
    groups = len(ker.envelope[0]) - 1   # classes of k mod groups
    need = sweep < env_r * means.max(1)[:, None]
    _settle_one_sided(config, r, table, padded, u, nodes, sweep, need)
    if not need.any():
        return
    c = nodes.cells[need.any(0)]   # 8 B a row, not held through the search
    chi = nodes.chi(ker, k_lo - c.max(), k_hi - c.min(), _BLOCK * c.size)
    del c
    # per table, a heap over the blocks of max mean per class of k, and of
    # minus the first and of the last column of a nonzero mean
    cls, nz = np.arange(k_lo, k_hi + 1) % groups, means != 0
    top = _SPLIT * max(1, -(-(nb - 1).bit_length() // _SPLIT))
    heap = np.full((len(means), groups + 2, 2 << top), -math.inf)
    heap[..., 1 << top:(1 << top) + nb] = np.stack([np.maximum.reduceat(
        np.where(cls == c, means, 0.0), starts - k_lo, axis=1)
        for c in range(groups)] + [
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
            cp = lattice_envelope(ker, x, max(-k_lo, k_hi)) * _MARGIN
            home = (end - nb) + np.minimum(np.maximum(
                (np.floor(x).astype(np.int64) - k_lo) // _BLOCK, 0), nb - 1)
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
                    at, b0 = rows[q[leaf]], starts[h[leaf] - end + nb]
                    np.maximum.at(sweep, (slice(None), at), _sweep(
                        padded, k_lo, lambda i, d: chi(at[i], d), b0,
                        b0 - nodes.cells[at], bw))
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
    """Operator values and the least denominator, at points or lattice nodes.

    A stacked table (``MeanValueTable.stack``) of shape (T, cells) gives
    values of shape (T, points) from one sweep: chi, the denominator and its
    certificate are computed once for all T tables, whose means must be
    non-negative and finite.
    """
    n, means, nodes = config.n, np.atleast_2d(table.values), None
    if isinstance(xs, LatticeNodes):   # a caller's, with offsets in [0, 1)
        nodes, first, o = xs, xs.cells, xs.offsets   # first: floor(u)
        if xs.n != n or not 0.0 <= o.min(initial=0.0) <= o.max(
                initial=0.0) < 1.0:
            raise InvalidInputError("nodes of another scale, or off [0, 1)")
        u = first + o[xs.offset]
    elif np.ndim(xs) > 1:
        raise InvalidInputError(f"points must be 1-D, not {np.shape(xs)}")
    else:
        u = n * np.asarray(xs, dtype=float).ravel()
    if (table.n, table.domain) != (n, config.domain):
        raise InvalidInputError("table for another scale or domain")
    if not 0.0 <= means.min(initial=0.0) <= means.max(initial=0.0) < math.inf:
        raise InvalidInputError("mean table is not non-negative and finite")
    a, b = config.domain or (-math.inf, math.inf)
    u_lo, u_hi = u.min(initial=math.inf), u.max(initial=-math.inf)
    if not (u_lo >= n * (a - 1e-9) and u_hi <= n * (b + 1e-9)
            and max(-u_lo, u_hi) < 2.0 ** 52):
        raise InvalidInputError("evaluation points must be finite and inside "
                                "the domain, with |n x| < 2**52")
    if nodes is None:   # u - rint(u) is exact, and floor(u) = cell - (o < 0)
        cell = np.rint(u).astype(np.int64)
        nodes = LatticeNodes(n, cell, np.arange(u.size), u - cell)
        first = cell - (nodes.offsets < 0.0)
    ker, r = config.kernel, _radius(config)
    lo, hi = (table.k_lo, table.k_hi) if config.domain else (-2**62, 2**62)
    size, compact = hi - lo + 1, ker.support is not None
    # a pruned row pays the core and at least one block, so a decay kernel
    # prunes only where J_n is wider than that
    prune = not compact and size > 2 * r + 1 + _BLOCK
    width = min(2 * r, size) if compact else 2 * r + 1 if prune else size
    first = np.minimum(np.maximum(first - (r - compact), lo), hi - width + 1)
    d = first - nodes.cells
    padded = np.zeros((len(means) + 1, means.shape[1] + 2))
    padded[:-1, 1:-1], padded[-1] = means, 1.0
    sweep = _sweep(padded, table.k_lo, nodes.chi(
        ker, d.min(initial=0), d.max(initial=0) + width - 1, width * d.size),
        first, d, width)
    if prune:
        _visit_blocks(config, r, table, padded, u, nodes, sweep)
    num, den = sweep[:-1], sweep[-1]
    den_min = float(den.min(initial=math.inf))
    # on the line this also certifies the columns never evaluated: each lies
    # farther than r from u, where |chi| <= a_chi / 4
    if den_min <= (0.0 if config.domain else config.a_chi * (1.0 - 1e-9)):
        raise InadmissibleKernelError(
            f"lattice supremum {den_min:.3e} at n={config.n} is too small")
    # a zero supremum is +0.0 whatever order numpy reduced in
    values = np.divide(np.maximum(num, 0.0, out=num), den, out=num)
    return (values if table.values.ndim == 2 else values[0]), den_min


def maxprod_kantorovich_grid(config: OperatorConfig, f: Signal,
                             xs) -> np.ndarray:
    """Vectorized operator evaluation; the mean table is built once."""
    table = mean_values(f, config.n, config.domain)
    return evaluate_with_table_den(config, table, xs)[0]


def maxprod_kantorovich(config: OperatorConfig, f: Signal, x: float) -> float:
    """Operator value at a single point (same code path as the grid form)."""
    return float(maxprod_kantorovich_grid(config, f, [x])[0])


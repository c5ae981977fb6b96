"""Test signals, CSV ingestion and Kantorovich cell-mean tables.

A :class:`Signal` is a vectorized evaluator plus the metadata the operators
need: domain (a bounded interval or the whole line), compact support, jump
locations (``breakpoints``) and slope breaks (``kinks``, used only to split
quadrature panels).  :class:`PiecewisePoly` provides exact polynomial
arithmetic (sums, differences, absolute values) so operator identities can
be tested without quadrature slack.
"""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .errors import (EmptyIndexSetError, InvalidInputError, TruncationError,
                     UnknownNameError)

Domain = tuple[float, float] | None  # None means the whole real line


@dataclass(frozen=True)
class Signal:
    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    domain: Domain
    support: tuple[float, float] | None = None
    breakpoints: tuple[float, ...] = ()
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        for pts in (self.breakpoints, self.kinks):
            if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
                raise ValueError("breakpoints/kinks must be strictly increasing")
        if self.domain is not None:
            a, b = self.domain
            if not a < b:
                raise ValueError("domain must be a nondegenerate interval")
            if any(t <= a or t >= b for t in self.breakpoints):
                raise ValueError("breakpoints must lie inside the domain")

    @property
    def is_line(self) -> bool:
        return self.domain is None

    def split_points(self) -> np.ndarray:
        """All locations where quadrature panels should be split, sorted."""
        return np.array(sorted({*self.breakpoints, *self.kinks}), dtype=float)


# ---------------------------------------------------------------------------
# exact piecewise polynomials

def _roots(c: np.ndarray) -> Sequence:
    """Roots of c (leading coefficient nonzero): closed forms for degrees 1
    and 2, the derivatives of cubic pieces, and np.roots above."""
    if c.size == 2:
        return [-c[1] / c[0]]
    if c.size > 3:
        return np.roots(c)
    a, b, q = (float(v) for v in c)
    disc = b * b - 4.0 * a * q
    if disc < 0.0:
        z = complex(-b / (2.0 * a), math.sqrt(-disc) / (2.0 * a))
        return [z, z.conjugate()]
    s = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [s / a, q / s] if s else [0.0, 0.0]


def _real_roots(coeffs: np.ndarray, lo: float, hi: float) -> list[float]:
    """Real roots of the polynomial strictly inside (lo, hi)."""
    c = np.asarray(coeffs, dtype=float)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return []
    idx = 0
    while idx < c.size - 1 and abs(c[idx]) <= 1e-14 * scale:
        idx += 1
    c = c[idx:]
    if c.size <= 1:
        return []
    span = hi - lo
    out = []
    for r in _roots(c):
        if abs(r.imag) > 1e-9 * (1.0 + abs(r.real)):
            continue
        x = float(r.real)
        if lo + 1e-12 * span < x < hi - 1e-12 * span:
            out.append(x)
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or x - dedup[-1] > 1e-12 * span:
            dedup.append(x)
    return dedup


class PiecewisePoly:
    """Polynomial pieces on [edges[i], edges[i+1]), right-continuous.

    ``coeffs`` is one matrix with a row per piece, in the ``np.polyval``
    convention (highest power first) and the global coordinate.  A piece of
    lower degree starts its row with zeros.  Horner's running value is zero
    until it meets the first nonzero coefficient and equals it exactly then,
    so a padded row gives the bits ``np.polyval`` gives the unpadded one.
    """

    def __init__(self, edges: Sequence[float], coeffs: Sequence[Sequence[float]]):
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.ndim != 1 or self.edges.size < 2:
            raise ValueError("need at least two edges")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if len(coeffs) != self.edges.size - 1:
            raise ValueError("one coefficient row per piece required")
        rows = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coeffs]
        self.coeffs = np.zeros((len(rows), max(r.size for r in rows)))
        for out, row in zip(self.coeffs, rows):
            out[out.size - row.size:] = row

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    def _pieces(self):
        return zip(self.coeffs, self.edges[:-1], self.edges[1:])

    def _piece_of(self, x: np.ndarray) -> np.ndarray:
        """Index of the piece each x lies in, the end pieces extended."""
        return np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                       0, len(self.coeffs) - 1)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = self._piece_of(x)
        out = np.zeros_like(x)
        for column in self.coeffs.T:
            out = out * x + column[idx]
        return out

    def _combine(self, other: "PiecewisePoly", sign: float) -> "PiecewisePoly":
        if self.domain != other.domain:
            raise ValueError("domain mismatch")
        edges = np.union1d(self.edges, other.edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        top = max(self.coeffs.shape[1], other.coeffs.shape[1])
        a, b = (np.pad(p.coeffs, ((0, 0), (top - p.coeffs.shape[1], 0)))[
            p._piece_of(mids)] for p in (self, other))
        return PiecewisePoly(edges, a + sign * b)

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._combine(other, 1.0)

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._combine(other, -1.0)

    def scaled(self, factor: float) -> "PiecewisePoly":
        return PiecewisePoly(self.edges, self.coeffs * factor)

    def absolute(self) -> "PiecewisePoly":
        """|p|, with sign-change locations promoted to exact edges."""
        edges, rows = [self.edges[0]], []
        for c, lo, hi in self._pieces():
            cuts = [lo, *_real_roots(c, lo, hi), hi]
            for a, b in zip(cuts[:-1], cuts[1:]):
                rows.append(-c if np.polyval(c, 0.5 * (a + b)) < 0.0 else c)
                edges.append(b)
        return PiecewisePoly(edges, rows)

    def _critical_points(self) -> list[np.ndarray]:
        """Per piece, its ends and its derivative's roots between them:
        the points where it takes its extrema.  A change of the constant
        term leaves them as they are."""
        return [np.array([lo, hi, *_real_roots(np.polyder(c), lo, hi)])
                for c, lo, hi in self._pieces()]

    def _extrema(self, points: list[np.ndarray]) -> np.ndarray:
        """Per piece, the minimum and maximum of its values at its points."""
        values = [np.polyval(c, x) for c, x in zip(self.coeffs, points)]
        return np.array([(v.min(), v.max()) for v in values])

    def minimum(self) -> float:
        return float(self._extrema(self._critical_points())[:, 0].min())

    def maximum(self) -> float:
        return float(self._extrema(self._critical_points())[:, 1].max())

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b] via antiderivatives (oracle use)."""
        total = 0.0
        for c, lo, hi in self._pieces():
            lo, hi = max(a, lo), min(b, hi)
            if hi > lo:
                anti = np.polyint(c)
                total += float(np.polyval(anti, hi) - np.polyval(anti, lo))
        return total

    def to_signal(self, name: str = "piecewise-poly") -> Signal:
        """Wrap as a Signal; interior edges become jumps or kinks."""
        jumps, kinks = [], []
        for i, t in enumerate(self.edges[1:-1].tolist()):
            left, right = (float(np.polyval(c, t)) for c in self.coeffs[i:i + 2])
            scale = max(1.0, abs(left), abs(right))
            (jumps if abs(left - right) > 1e-12 * scale else kinks).append(t)
        return Signal(name=name, evaluate=self.evaluate, domain=self.domain,
                      breakpoints=tuple(jumps), kinks=tuple(kinks))


def random_piecewise_poly(rng: np.random.Generator,
                          domain: tuple[float, float] = (0.0, 1.0)
                          ) -> PiecewisePoly:
    """Seeded non-negative piecewise polynomial (property-test fixture).

    It has at most 3 breakpoints, pieces have degree at most 3 and the peak
    is scaled down to 2 if higher.
    """
    lo, hi = domain
    span = hi - lo
    nb = int(rng.integers(0, 4))
    while True:
        cuts = np.sort(rng.uniform(lo + 0.05 * span, hi - 0.05 * span, size=nb))
        if nb < 2 or np.min(np.diff(cuts)) > 0.03 * span:
            break
    edges = np.concatenate([[lo], cuts, [hi]])
    coeffs = []
    for _ in range(edges.size - 1):
        deg = int(rng.integers(0, 4))
        coeffs.append(rng.normal(0.0, 1.0, size=deg + 1))
    poly = PiecewisePoly(edges, coeffs)
    points = poly._critical_points()
    lows = rng.uniform(0.0, 0.5, size=len(points))  # each piece's new minimum
    poly.coeffs[:, -1] += lows - poly._extrema(points)[:, 0]
    peak = poly._extrema(points)[:, 1].max()
    return poly.scaled(2.0 / peak) if peak > 2.0 else poly


# ---------------------------------------------------------------------------
# catalog and CSV ingestion

def catalog(name: str) -> Signal:
    """Named test signals.

    ``constant:<c>``, ``ramp``, ``step``, ``sawtooth`` and ``abs-sine`` live
    on [0, 1]; ``hat`` and ``square-pulse`` are compactly supported signals
    on the real line.  All are non-negative: c must be finite and >= 0.
    """
    key = name.strip().lower()
    if key.startswith("constant:"):
        try:
            c = float(key.split(":", 1)[1])
        except ValueError:
            raise UnknownNameError(f"malformed constant signal: {name!r}") from None
        if not math.isfinite(c):
            raise UnknownNameError(f"constant signal must be finite: {name!r}")
        if c < 0.0:
            raise UnknownNameError(f"signal {key!r} takes negative values; "
                                   "the operator acts on non-negative signals")
        return PiecewisePoly((0.0, 1.0), [(c,)]).to_signal(name=key)
    if key == "ramp":
        return PiecewisePoly((0.0, 1.0), [(1.0, 0.0)]).to_signal(name="ramp")
    if key == "step":
        return PiecewisePoly((0.0, 0.5, 1.0), [(0.0,), (1.0,)]).to_signal(name="step")
    if key == "sawtooth":
        poly = PiecewisePoly((0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0),
                             [(3.0, 0.0), (3.0, -1.0), (3.0, -2.0)])
        return poly.to_signal(name="sawtooth")
    if key == "abs-sine":
        def evaluate(x):
            return np.abs(np.sin(2.0 * math.pi * np.asarray(x, dtype=float)))

        return Signal(name="abs-sine", evaluate=evaluate, domain=(0.0, 1.0),
                      kinks=(0.5,))
    if key == "hat":
        def evaluate(x):
            return np.clip(1.0 - np.abs(np.asarray(x, dtype=float)), 0.0, None)

        return Signal(name="hat", evaluate=evaluate, domain=None,
                      support=(-1.0, 1.0), kinks=(-1.0, 0.0, 1.0))
    if key == "square-pulse":
        def evaluate(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= 0.5, 1.0, 0.0)

        return Signal(name="square-pulse", evaluate=evaluate, domain=None,
                      support=(-0.5, 0.5), breakpoints=(-0.5, 0.5))
    raise UnknownNameError(f"unknown signal: {name!r}")


def from_csv(path, domain: tuple[float, float]) -> Signal:
    """Piecewise-linear signal from a two-column (t, value) CSV file.

    The header row is optional; t must be strictly increasing.  Negative
    samples are clamped to zero (a warning reports how many).
    """
    path = Path(path)
    ts: list[float] = []
    vs: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            try:
                t, v = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1 and not ts:
                    continue  # header
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from None
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError(f"{path}:{lineno}: non-finite sample {row!r}")
            ts.append(t)
            vs.append(v)
    if not ts:
        raise ValueError(f"{path}: no data rows")
    t_arr = np.asarray(ts)
    v_arr = np.asarray(vs)
    if np.any(np.diff(t_arr) <= 0):
        raise ValueError(f"{path}: sample times must be strictly increasing")
    clipped = int(np.sum(v_arr < 0))
    if clipped:
        warnings.warn(f"{path.name}: clamped {clipped} negative values to 0")
        v_arr = np.clip(v_arr, 0.0, None)

    def evaluate(x):
        return np.interp(np.asarray(x, dtype=float), t_arr, v_arr)

    a, b = float(domain[0]), float(domain[1])
    interior = tuple(float(t) for t in t_arr if a < t < b)
    return Signal(name=path.stem, evaluate=evaluate, domain=(a, b),
                  kinks=interior)


# ---------------------------------------------------------------------------
# cell means

@dataclass(frozen=True)
class MeanValueTable:
    """Per-cell Kantorovich means scale * integral over [k/scale, (k+1)/scale]."""

    n: int
    k_lo: int
    k_hi: int
    values: np.ndarray
    domain: Domain

    @classmethod
    def stack(cls, tables: Sequence["MeanValueTable"]) -> "MeanValueTable":
        """One table whose ``values`` row t holds the means of tables[t], so
        that one operator sweep serves them all.

        The tables must share n and the domain, so interval tables share
        their index range.  Line tables are padded to the union of their
        ranges with the zero means of the cells off their supports.
        """
        n, domain = tables[0].n, tables[0].domain
        if any((t.n, t.domain) != (n, domain) for t in tables):
            raise InvalidInputError("stacked mean tables must share n and "
                                    "the domain")
        k_lo = min(t.k_lo for t in tables)
        k_hi = max(t.k_hi for t in tables)
        values = np.zeros((len(tables), k_hi - k_lo + 1))
        for row, t in zip(values, tables):
            row[t.k_lo - k_lo:t.k_hi - k_lo + 1] = t.values
        return cls(n=n, k_lo=k_lo, k_hi=k_hi, values=values, domain=domain)


def _snap_int(x: float) -> float:
    r = round(x)
    return float(r) if abs(x - r) < 1e-9 else x


def iceil(x: float) -> int:
    return int(math.ceil(_snap_int(x)))


def ifloor(x: float) -> int:
    return int(math.floor(_snap_int(x)))


def cell_means(f: Signal, scale: float, k_lo: int, k_hi: int) -> np.ndarray:
    """Gauss-Legendre cell means for k in [k_lo, k_hi].

    Cells containing declared breakpoints or kinks are split there, so the
    16-point rule is exact for piecewise polynomials up to degree 31.  The
    panels take node passes of ``quadrature.PASS_SIZE``, so memory stays
    fixed however many split points there are.  Each panel sums its 16
    terms as a row of ``np.sum``, in any pass, and each cell adds its first
    panel to the ``np.add.reduce`` of its others (``np.add.reduceat``'s
    order), so no sum goes through BLAS and a cell no split point falls in
    is bitwise ``scale * np.sum(f(x) * w)`` over its own nodes.
    """
    edges = np.arange(k_lo, k_hi + 2) / scale
    splits = f.split_points()
    cuts = np.union1d(edges, splits[(splits > edges[0]) & (splits < edges[-1])])
    blocks = (quadrature.composite_nodes(cuts[p:p + quadrature.PASS_SIZE + 1])
              for p in range(0, cuts.size - 1, quadrature.PASS_SIZE))
    panels = np.concatenate([(f.evaluate(x) * w).reshape(-1, 16).sum(axis=1)
                             for x, w in blocks])
    return scale * np.add.reduceat(panels, np.searchsorted(cuts, edges[:-1]))


def positive_scale(n) -> int:
    """n as an int, if it is a positive whole number of any real type."""
    if not (isinstance(n, numbers.Real) and 1 <= n < math.inf and not n % 1):
        raise InvalidInputError("scale n must be a positive integer")
    return int(n)


def mean_values(f: Signal, n: int, domain: Domain) -> MeanValueTable:
    """Kantorovich mean table for scale ``n`` on ``domain``.

    On a bounded domain [a, b], the signal's own or a sub-interval an
    operator is evaluated on, the lattice index runs over
    ceil(n a) <= k <= floor(n b) - 1 (an empty range is an error: the caller
    must pick a scale that fits the interval).  On the real line (``None``)
    the signal must have compact support; cells away from the support have
    mean zero and are represented implicitly.
    """
    n = positive_scale(n)
    if domain is not None:
        a, b = domain
        k_lo = iceil(n * a)
        k_hi = ifloor(n * b) - 1
        if k_lo > k_hi:
            raise EmptyIndexSetError(
                f"no lattice cells for n={n} on [{a}, {b}]")
    else:
        if f.support is None:
            raise TruncationError(
                "real-line mean table requires a compactly supported signal")
        s_lo, s_hi = f.support
        k_lo = ifloor(n * s_lo) - 1
        k_hi = iceil(n * s_hi)
    values = cell_means(f, float(n), k_lo, k_hi)
    return MeanValueTable(n=n, k_lo=k_lo, k_hi=k_hi, values=values,
                          domain=domain)

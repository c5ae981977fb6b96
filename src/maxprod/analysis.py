"""Empirical verification harness: convergence runs, inequality checks and
seeded randomized campaigns.

Sup-norm errors are measured on a dense grid (2048 points plus the lattice
cell midpoints; on the line the operator skips the points where a certified
far-field bound, ``_far_bound``, lies below the maximum found, which leaves
the same float); modular and Luxemburg errors integrate on composite
Gauss-Legendre panels aligned with the lattice cells and the signal's
declared discontinuities, whose half-cell nodes reach the operator as
lattice nodes (``quadrature.lattice_nodes``).  Everything is deterministic
for a fixed seed and quadrature policy, so reports are bitwise reproducible.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import quadrature
from .errors import InvalidInputError, TruncationError
from .kernels import (Kernel, _decay_coefficient, ensure_l1, kernel_by_name,
                      moment)
from .operators import (_MARGIN, OperatorConfig, evaluate_with_table_den,
                        operator_config)
from .orlicz import (PhiFunction, exponential_phi, luxemburg_from_samples,
                     maxphi_inequality_check, modular, modular_from_samples,
                     phi_by_name, power_phi, zygmund_phi)
from .signals import (Domain, MeanValueTable, PiecewisePoly, Signal,
                      mean_values, positive_scale, random_piecewise_poly)

_SUP_GRID = 2048
_RATE_FLOOR = 1e-12
CAMPAIGN_SCALES = (4, 8, 16, 32)   # the scales the campaigns draw from
# the operator-algebra campaign's kernels, taken in turn
ALGEBRA_KERNELS = ("fejer", "vallee-poussin", "bspline:4", "bspline:5")


# ---------------------------------------------------------------------------
# result records

@dataclass
class ConvergenceReport:
    """Per-scale error families for one (signal, kernel, phi) run."""

    scales: list[int]
    sup_errors: list[float]
    modular_errors: list[float]
    luxemburg_errors: list[float]
    fitted_rate: float | None
    lambda_used: float
    valid: list[bool]
    kernel: str = ""
    phi: str = ""
    signal: str = ""

    def to_json(self, path) -> None:
        """Strict RFC 8259 JSON; a divergent (infinite) error is null."""
        payload = asdict(self)
        for key in ("sup_errors", "modular_errors", "luxemburg_errors"):
            payload[key] = [None if math.isinf(v) else v
                            for v in payload[key]]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "sup_error", "modular_error",
                             "luxemburg_error"])
            for row in zip(self.scales, self.sup_errors, self.modular_errors,
                           self.luxemburg_errors):
                writer.writerow([row[0], repr(row[1]), repr(row[2]),
                                 repr(row[3])])


@dataclass(frozen=True)
class InequalityCheck:
    """Uniform record for one numerical inequality verification."""

    lhs: float
    rhs: float
    slack: float
    passed: bool
    context: str

    @classmethod
    def from_sides(cls, lhs: float, rhs: float, tolerance: float,
                   context: str) -> "InequalityCheck":
        if math.isinf(rhs):
            return cls(lhs=lhs, rhs=rhs, slack=math.inf, passed=True,
                       context=context + " [vacuous: rhs infinite]")
        slack = rhs - lhs
        return cls(lhs=lhs, rhs=rhs, slack=slack,
                   passed=slack >= -tolerance, context=context)


@dataclass
class CampaignResult:
    family: str
    trials: int
    failures: int
    worst_slack: float

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be >= 0")

    @property
    def passed(self) -> bool:
        return self.failures == 0


# ---------------------------------------------------------------------------
# shared machinery

def fit_rate(scales, errors) -> float | None:
    """Least-squares slope of log error against log n, ignoring zeros."""
    ns, es = [], []
    for n, e in zip(scales, errors):
        if math.isfinite(e) and e > _RATE_FLOOR:
            ns.append(math.log(float(n)))
            es.append(math.log(float(e)))
    if len(ns) < 2:
        return None
    slope = np.polyfit(ns, es, 1)[0]
    return float(slope)


def _eval_window(config: OperatorConfig, f: Signal) -> tuple[float, float]:
    """Window for error measurement: the domain, or the inflated support."""
    if f.domain is not None:
        return f.domain
    if f.support is None:
        raise TruncationError("real-line signal needs compact support")
    s_lo, s_hi = f.support
    kernel, n, a_chi = config.kernel, config.n, config.a_chi
    if kernel.support is not None:
        margin = (kernel.support + 2.0) / n
    else:
        c = _decay_coefficient(kernel)
        margin = ((c / (a_chi * 1e-9)) ** (1.0 / kernel.decay_order)) / n
    margin = min(16.0, max(2.0, margin))
    return s_lo - margin, s_hi + margin


def _sup_grid(f: Signal, window: tuple[float, float], n: int) -> np.ndarray:
    a, b = window
    grid = np.linspace(a, b, _SUP_GRID)
    k_lo, k_hi = math.floor(n * a), math.ceil(n * b)
    mids = (np.arange(k_lo, k_hi) + 0.5) / n
    mids = mids[(mids >= a) & (mids <= b)]
    return np.unique(np.concatenate([grid, mids]))


def _quad_panels(f: Signal, window: tuple[float, float],
                 n: int) -> np.ndarray:
    """Panel edges: lattice half-cells plus the signal's split points.

    For real-line windows the half-cell resolution is kept near the support
    (where the error lives) and relaxed to unit panels in the decaying far
    field, which the Gauss rule resolves easily.
    """
    a, b = window
    if f.support is not None:
        core_lo, core_hi = f.support[0] - 2.0, f.support[1] + 2.0
    else:
        core_lo, core_hi = a, b
    lo, hi = max(a, core_lo), min(b, core_hi)
    k_lo, k_hi = math.floor(n * lo), math.ceil(n * hi)
    half_cells = np.arange(2 * k_lo, 2 * k_hi + 1) / (2.0 * n)
    far = [np.arange(math.floor(a), math.ceil(lo) + 1, dtype=float),
           np.arange(math.floor(hi), math.ceil(b) + 1, dtype=float)]
    pts = np.concatenate([half_cells, *far,
                          np.asarray(f.split_points()), [a, b]])
    pts = pts[(pts >= a) & (pts <= b)]
    return np.unique(pts)


@dataclass
class _ErrorSamples:
    weights: np.ndarray
    deviations: np.ndarray   # |K_n f - f| at the nodes
    sup_error: float
    den_ok: bool


def _far_bound(config: OperatorConfig, table: MeanValueTable, x: np.ndarray,
               fx: np.ndarray) -> np.ndarray:
    """Per point x on the line, a bound B >= K_n f(x) where f(x) = 0 and
    every nonzero mean is dist >= 1 lattice units off u = n x, else inf:
    B = (C + slack (|u| + k_max)) M dist**-alpha / (a_chi (1 - 1e-9)), M the
    largest mean, times a margin for rounding; a compact kernel's B is 0
    from dist >= ceil(support)."""
    ker, u = config.kernel, config.n * x
    nz = table.k_lo + np.flatnonzero(table.values)
    dist = np.maximum(nz.min(initial=2**62) - u, u - nz.max(initial=-2**62))
    if ker.support is not None:
        bound = np.where(dist >= math.ceil(ker.support), 0.0, math.inf)
    else:
        slack = ker.envelope[1] * (abs(u) + max(-table.k_lo, table.k_hi))
        scale = table.values.max() * _MARGIN / (config.a_chi * (1.0 - 1e-9))
        bound = np.where(dist >= 1.0, (_decay_coefficient(ker) + slack) * scale
                         * np.maximum(dist, 1.0) ** -ker.decay_order, math.inf)
    return np.where(fx != 0.0, math.inf, bound)


def _sup_error(config: OperatorConfig, table: MeanValueTable, f: Signal,
               window: tuple[float, float]) -> tuple[float, float]:
    """sup |K_n f - f| on the sup grid, and the least denominator.

    An interval's grid goes to the operator in one call.  On the line the
    points with no ``_far_bound`` go first, then those whose bound reaches
    their maximum: the points skipped lie below it, so the supremum is the
    same float.
    """
    grid = _sup_grid(f, window, config.n)
    fx = f.evaluate(grid)

    def worst(pick):
        k_grid, den = evaluate_with_table_den(config, table, grid[pick])
        return float(np.max(np.abs(k_grid - fx[pick]), initial=0.0)), den

    if config.domain is not None:
        return worst(slice(None))
    bound = _far_bound(config, table, grid, fx)
    sup_error, den_min = worst(bound == math.inf)
    far = (bound >= sup_error) & (bound < math.inf)
    if far.any():
        far_error, den = worst(far)
        sup_error, den_min = max(sup_error, far_error), min(den_min, den)
    return sup_error, den_min


def _error_samples(config: OperatorConfig, f: Signal) -> _ErrorSamples:
    n, a_chi = config.n, config.a_chi
    table = mean_values(f, n, config.domain)
    window = _eval_window(config, f)
    sup_error, den_min = _sup_error(config, table, f, window)
    panels = _quad_panels(f, window, n)
    weights = np.empty(16 * (panels.size - 1))
    deviations = np.empty(weights.size)
    # operator rows are independent, so building and evaluating the nodes
    # a slice of panels at a time bounds the temporaries without moving a
    # value; half-cell nodes go as lattice nodes, the rest as points
    for p in range(0, panels.size - 1, quadrature.PASS_SIZE):
        at = slice(16 * p, 16 * (p + quadrature.PASS_SIZE))
        x, weights[at], on, lattice = quadrature.lattice_nodes(
            panels[p:p + quadrature.PASS_SIZE + 1], n)
        dev = deviations[at]
        # f first, so that only the nodes off the half-cells outlive it;
        # -f + K_n f rounds as K_n f - f
        np.negative(f.evaluate(x), out=dev)
        x = x[~on]
        for part, pts in ((on, lattice), (~on, x)):
            if part.any():
                k_nodes, den = evaluate_with_table_den(config, table, pts)
                dev[part] += k_nodes
                den_min = min(den_min, den)
        np.abs(dev, out=dev)
    den_ok = den_min >= a_chi - 1e-9
    return _ErrorSamples(weights=weights, deviations=deviations,
                         sup_error=sup_error, den_ok=den_ok)


# ---------------------------------------------------------------------------
# spec operations

def modulus_of_continuity(f: Signal, delta: float) -> float:
    """sup |f(x) - f(y)| over pairs at distance <= delta on a dense grid.

    The grid places at least 16 points per delta.  For signals with jumps
    the value reflects the jump; continuity is the caller's responsibility
    where a modulus-based bound is being applied.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if f.domain is not None:
        a, b = f.domain
    elif f.support is not None:
        a, b = f.support[0] - delta, f.support[1] + delta
    else:
        raise ValueError("modulus needs a bounded domain or compact support")
    steps = int(math.ceil(16 * (b - a) / delta))
    steps = min(steps, 4_000_000)
    xs = np.linspace(a, b, steps + 1)
    vals = np.asarray(f.evaluate(xs), dtype=float)
    h = (b - a) / steps
    width = int(math.floor(delta / h + 1e-9))
    best = 0.0
    for j in range(1, width + 1):
        best = max(best, float(np.max(np.abs(vals[j:] - vals[:-j]))))
    return best


def run_convergence(f: Signal, kernel: Kernel, phi: PhiFunction, lam: float,
                    scales: Sequence[int]) -> ConvergenceReport:
    """Measure sup, modular and Luxemburg errors of K_n f across scales, on
    the signal's own domain."""
    scales = [positive_scale(n) for n in scales]
    if not scales or any(b <= a for a, b in zip(scales, scales[1:])):
        raise InvalidInputError("scales must be non-empty and strictly "
                                "increasing")

    def cell(n: int):
        samples = _error_samples(operator_config(kernel, n, f.domain), f)
        mod = modular_from_samples(phi, lam * samples.deviations,
                                   samples.weights)
        lux = luxemburg_from_samples(phi, samples.deviations, samples.weights,
                                     1e-9)
        return samples.sup_error, mod, lux, samples.den_ok

    rows = [cell(n) for n in scales]
    sup_errors = [r[0] for r in rows]
    return ConvergenceReport(
        scales=scales, sup_errors=sup_errors,
        modular_errors=[r[1] for r in rows],
        luxemburg_errors=[r[2] for r in rows],
        fitted_rate=fit_rate(scales, sup_errors), lambda_used=float(lam),
        valid=[r[3] for r in rows], kernel=kernel.name, phi=phi.name,
        signal=f.name)


# ---------------------------------------------------------------------------
# pair inequalities: the modular inequality and its four trial families

@dataclass(frozen=True)
class PairFamily:
    """One family of modular-inequality trials, and how it reports them.

    ``form`` maps the modular sides to the reported ones: "modular" keeps
    them; "lp" takes their p-th roots, which at lambda = 1 with phi = u**p
    is the L^p bound |K_n f - K_n g|_p <= 2 (m0^(p-1) l1)^(1/p) / a
    |f - g|_p; "zygmund" divides them by lambda, which with zygmund:1,1 is
    the u log u instance with constant 2 l1 / a.  ``atol`` and ``rtol`` are
    the lhs's adaptive Simpson tolerances (atol in reported units, so the
    Zygmund integrals get atol * lambda), and rtol is the rhs's relative
    one.  ``verify`` runs max(1, draws // share) trials of the family.
    """

    name: str
    kernels: tuple[str, ...]   # catalog names, taken in turn
    phis: tuple[str, ...]
    form: str
    atol: float
    rtol: float
    share: int


PAIR_FAMILIES = {family.name: family for family in (
    PairFamily("modular-inequality", ("fejer", "bspline:4"),
               ("power:1", "power:2", "zygmund:1,1", "exponential:1"),
               "modular", 1e-9, 1e-10, 1),
    # the p-th root of a small integral needs the tighter tolerances
    PairFamily("lp-lipschitz", ("fejer", "bspline:4", "vallee-poussin"),
               ("power:1", "power:2", "power:3"), "lp", 1e-12, 1e-11, 1),
    PairFamily("zygmund-instance", ("fejer", "bspline:4"), ("zygmund:1,1",),
               "zygmund", 1e-10, 1e-10, 4),
    PairFamily("exponential-instance", ("fejer", "bspline:4"),
               ("exponential:1",), "modular", 1e-9, 1e-10, 4),
)}
_PAIR_SCALES = (16, 32)


def check_modular_inequality(family: PairFamily, f: PiecewisePoly,
                             g: PiecewisePoly, kernel: Kernel,
                             phi: PhiFunction, lam: float, n: int,
                             domain: Domain,
                             tolerance: float) -> InequalityCheck:
    """Modular Lipschitz inequality for the operator pair (K_n f, K_n g).

    lhs integrates phi(lam |K_n f - K_n g|) by adaptive Simpson over f's
    evaluation window, from the lattice half-cells and both signals' split
    points; f's and g's mean tables are stacked, so each round is one
    operator sweep.  rhs is l1/m0 times ``orlicz.modular`` of
    (m0/a) * 2 lam * |f - g| on the exact pieces of |f - g|, where the
    Gauss rule is exact for the power phis.  Both sides are reported in
    ``family.form``; an infinite rhs makes the check vacuous (flagged in
    the context string).
    """
    config = operator_config(kernel, n, domain)
    m0 = moment(kernel, 0.0)
    factor = 2.0 * lam * m0 / config.a_chi
    d = (f - g).absolute().to_signal(name="|f - g|")
    f, g = f.to_signal(name="f"), g.to_signal(name="g")
    tables = MeanValueTable.stack([mean_values(s, n, domain) for s in (f, g)])
    window = _eval_window(config, f)
    edges = np.union1d(_quad_panels(f, window, n), [
        t for t in g.split_points() if window[0] < t < window[1]])

    def lhs_fn(x):
        kf, kg = evaluate_with_table_den(config, tables, x)[0]
        return phi.evaluate(lam * np.abs(kf - kg))

    scale = lam if family.form == "zygmund" else 1.0
    with np.errstate(over="ignore"):   # an infinite side is divergence
        lhs = quadrature.adaptive(lhs_fn, edges, atol=family.atol * scale,
                                  rtol=family.rtol)
    rhs = modular(phi, d, window, tol=family.rtol, scale=factor)
    rhs *= ensure_l1(kernel) / m0
    if family.form == "lp":   # phi(u) = u**p, so phi(2) = 2**p
        root = 1.0 / math.log2(float(phi.evaluate(2.0)))
        lhs, rhs = lhs ** root, rhs ** root
    context = (f"{family.name}: kernel={kernel.name} phi={phi.name} "
               f"lambda={lam:g} n={n}")
    return InequalityCheck.from_sides(lhs / scale, rhs / scale, tolerance,
                                      context)


def check_jackson(f: Signal, kernel: Kernel, n: int) -> InequalityCheck:
    """Jackson-type sup bound: sup |K_n f - f| <= (2 m0 + m1)/a * omega(f, 1/n).

    Requires a finite first moment; meaningful for continuous signals (a
    jump inflates the modulus and the bound loses its meaning).
    """
    config = operator_config(kernel, n, f.domain)
    m0 = moment(kernel, 0.0)
    m1 = moment(kernel, 1.0)
    if not math.isfinite(m1):
        raise TruncationError(
            f"first moment of {kernel.name!r} diverges; the Jackson bound "
            "does not apply")
    sup_error = _sup_error(config, mean_values(f, n, config.domain), f,
                           _eval_window(config, f))[0]
    omega = modulus_of_continuity(f, 1.0 / n)
    rhs = (2.0 * m0 + m1) / config.a_chi * omega
    context = (f"Jackson: kernel={kernel.name} signal={f.name} n={n} "
               f"omega={omega:.6g}")
    return InequalityCheck.from_sides(sup_error, rhs, 1e-9, context)


# ---------------------------------------------------------------------------
# randomized campaigns (shared by the test suite and the CLI verifier)

def campaign_operator_algebra(trials: int, seed: int,
                              kernels: Sequence[Kernel] | None = None,
                              interval: tuple[float, float] = (0.0, 1.0)
                              ) -> list[CampaignResult]:
    """Seeded checks of the four operator algebra properties.

    Per trial: monotonicity under f <= g, sub-additivity, the difference
    bound through |f - g|, and positive homogeneity, each to 1e-12.
    Signals are exact piecewise polynomials, so the mean tables carry no
    quadrature slack.
    """
    rng = np.random.default_rng(seed)
    if kernels is None:
        kernels = [kernel_by_name(name) for name in ALGEBRA_KERNELS]
    fails = {"monotonicity": 0, "sub-additivity": 0, "difference-bound": 0,
             "homogeneity": 0}
    worst = {k: math.inf for k in fails}
    for t in range(trials):
        ker = kernels[t % len(kernels)]
        n = int(rng.choice(CAMPAIGN_SCALES))
        config = operator_config(ker, n, interval)
        fp = random_piecewise_poly(rng, domain=interval)
        gp = random_piecewise_poly(rng, domain=interval)
        hp = random_piecewise_poly(rng, domain=interval)
        lam = float(rng.choice([0.0, 0.5, 2.0, 10.0]))
        xs = rng.uniform(interval[0], interval[1], size=4)
        sig = {name: poly.to_signal(name=name) for name, poly in (
            ("f", fp), ("g", gp), ("fh", fp + hp), ("fg", fp + gp),
            ("d", (fp - gp).absolute()), ("lf", fp.scaled(lam)))}
        tables = MeanValueTable.stack([mean_values(s, n, interval)
                                       for s in sig.values()])
        vals = dict(zip(sig, evaluate_with_table_den(config, tables, xs)[0]))
        checks = {
            "monotonicity": float(np.min(vals["fh"] - vals["f"])),
            "sub-additivity": float(np.min(
                vals["f"] + vals["g"] - vals["fg"])),
            "difference-bound": float(np.min(
                vals["d"] - np.abs(vals["f"] - vals["g"]))),
            "homogeneity": float(-np.max(
                np.abs(vals["lf"] - lam * vals["f"])
                / np.maximum(1.0, np.abs(lam * vals["f"])))),
        }
        for name, margin in checks.items():
            worst[name] = min(worst[name], margin)
            if margin < -1e-12:
                fails[name] += 1
    return [CampaignResult(family=f"operator-algebra/{name}", trials=trials,
                           failures=fails[name], worst_slack=worst[name])
            for name in fails]


def campaign_max_convexity(trials: int, seed: int) -> CampaignResult:
    """Randomized finite max-sets against the convexity/max inequality,
    for power:2, zygmund:1,1 and exponential:1 in turn."""
    rng = np.random.default_rng(seed)
    phis = [power_phi(2), zygmund_phi(1, 1), exponential_phi(1)]
    failures = 0
    for t in range(trials):
        size = int(rng.integers(1, 64))
        values = rng.uniform(0.0, 5.0, size=size)
        if rng.uniform() < 0.2:
            values[rng.integers(0, size)] = 0.0
        phi = phis[t % len(phis)]
        le, eq = maxphi_inequality_check(phi, values)
        if not (le and eq):
            failures += 1
    return CampaignResult(family="max-convexity", trials=trials,
                          failures=failures, worst_slack=0.0)


def campaign_pair_inequality(family: PairFamily, trials: int, seed: int,
                             kernels: Sequence[Kernel] | None,
                             interval: tuple[float, float],
                             tolerance: float) -> CampaignResult:
    """Seeded trials of one pair family on random piecewise polynomials.

    Trial t takes kernel t mod K (the family's own unless ``kernels`` names
    some) and cycles n over (16, 32) and phi over the family's list.  On
    the "lp" form p changes every trial and n every p cycle, at lambda = 1;
    otherwise n changes every trial and phi every kernel cycle, and lambda
    is drawn from [0.25, 2] for a doubling phi and from [0.01, 0.05] for
    one that is not.  The pair (f, g) is drawn after lambda.
    """
    rng = np.random.default_rng(seed)
    kernels = kernels or [kernel_by_name(name) for name in family.kernels]
    phis = [phi_by_name(name) for name in family.phis]
    failures, worst = 0, math.inf
    for t in range(trials):
        kernel = kernels[t % len(kernels)]
        if family.form == "lp":
            phi, lam = phis[t % len(phis)], 1.0
            n = _PAIR_SCALES[(t // len(phis)) % 2]
        else:
            phi = phis[(t // len(kernels)) % len(phis)]
            n = _PAIR_SCALES[t % 2]
            lam = float(rng.uniform(0.25, 2.0) if phi.delta2
                        else rng.uniform(0.01, 0.05))
        f = random_piecewise_poly(rng, domain=interval)
        g = random_piecewise_poly(rng, domain=interval)
        result = check_modular_inequality(family, f, g, kernel, phi, lam, n,
                                          interval, tolerance)
        worst = min(worst, result.slack)
        failures += not result.passed
    return CampaignResult(family=family.name, trials=trials,
                          failures=failures, worst_slack=worst)

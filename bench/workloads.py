"""The four benchmark workloads.

Each workload builds its inputs from the seed (``setup``, outside the timed
region), runs one pass through the public API or the CLI entry point
``maxprod.cli.main(argv)`` called in-process (``run_pass``, timed), and
then checks every item of the pass (``check``).  An item fails when it
raises, when its CLI call exits non-zero, or when its output breaks the
correctness check: agreement with the outputs recorded in
``references.json`` where that seed was recorded, and invariants always.

A seed gives INPUT_SETS input sets and pass k uses set k % INPUT_SETS, so
one run's median averages over several inputs rather than resting on one
draw's cost.

Functions of the program are looked up on their modules at call time, so
the wrappers the traced run installs are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import maxprod.cli
import maxprod.kernels
import maxprod.orlicz
import maxprod.signals

INPUT_SETS = 8

# Tolerances of the reference comparison, each tied to the quantity's own
# numerical tolerance.  Compact-kernel suprema are exact today (ROADMAP aim
# 3) and are compared bitwise.
SUP_RTOL = 1e-12      # decay-kernel suprema: certified truncation, rounding only
MODULAR_RTOL = 1e-9   # sampled modular error, held to the Luxemburg accuracy
LUX_RTOL = 2e-9       # bisection to tol=1e-9 relative, on either side
NORM_RTOL = 1e-9      # luxemburg_norm(tol=1e-10) plus atol=1e-11 quadrature
NORM_EXACT_RTOL = 1e-9  # the same norm against the exact PiecewisePoly L^p
MODULAR_ONE_ATOL = 1e-8  # modular(f/|f|) - 1: d(modular)/d(log lambda) <= 10
PRINTED_RTOL = 1e-3   # verify prints worst slack with 4 significant digits
# Worst-slack tolerance per campaign: the campaign's own slack or --tol.
WORST_ATOL = {"operator-algebra": 1e-12, "max-convexity": 0.0,
              "modular-inequality": 1e-8, "lp-lipschitz": 1e-8,
              "zygmund-instance": 1e-8, "exponential-instance": 1e-8}

_VERIFY_LINE = re.compile(r"^(\S+)\s+trials=(\d+)\s+failures=(\d+)\s+"
                          r"worst_slack=(\S+)\s+\[(pass|FAIL)\]")


def call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """Run ``maxprod.cli.main`` in-process, capturing its output.

    Returns (exit code, stdout, stderr); the exit code is None when the call
    raised, and stderr then holds the exception.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = maxprod.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an item that raises is a failed item
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return a == b or (a is not None and b is not None
                      and abs(a - b) <= atol + rtol * abs(b))


class Workload:
    """One workload; subclasses define the inputs, the pass and the check."""

    name = ""
    items = 0            # items per pass
    seeded_units = ()    # outputs that depend on the seed and the input set

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.errors: list[str] = []
        self.bytes_written = 0

    def rng(self, k: int) -> np.random.Generator:
        """Generator of input set k of this seed."""
        return np.random.default_rng([self.seed, k])

    def ref_key(self, unit: str, k: int) -> str:
        if unit in self.seeded_units:
            return f"{self.seed}.{k % INPUT_SETS}"
        return "*"

    def reference(self, refs: dict, unit: str, k: int):
        return refs.get(unit, {}).get(self.ref_key(unit, k))

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, k: int):
        """Pass on input set k % INPUT_SETS; returns the raw outputs."""
        raise NotImplementedError

    def collect(self, raw) -> dict:
        """Outputs of a pass in the form ``references.json`` stores."""
        raise NotImplementedError

    def check(self, outputs: dict, refs: dict, k: int) -> int:
        """Number of failed items in pass k."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# convergence studies

class _Converge(Workload):
    def studies(self, k: int) -> tuple:
        """(unit, argv without --out, scales, compact kernel) per study."""
        raise NotImplementedError

    def _out(self, unit) -> Path:
        return self.workdir / f"report-{unit}"

    def run_pass(self, k: int, smallest: bool = False):
        raw = {}
        for unit, argv, scales, _ in self.studies(k):
            if smallest:   # --scales is the last option
                argv = [*argv[:-1], str(scales[0])]
            raw[unit] = call_cli(["converge", *argv,
                                  "--out", str(self._out(unit))])
        return raw

    def warm_up(self) -> None:
        self.collect(self.run_pass(0, smallest=True))
        self.errors.clear()

    def collect(self, raw) -> dict:
        outputs = {}
        self.bytes_written = 0
        for unit, (rc, out, err) in raw.items():
            report = None
            paths = [self._out(unit).with_suffix(s) for s in (".json", ".csv")]
            if rc == 0:
                try:
                    with open(paths[0], encoding="utf-8") as fh:
                        full = json.load(fh)
                    report = {k: full[k] for k in (
                        "scales", "sup_errors", "modular_errors",
                        "luxemburg_errors", "valid")}
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    self.errors.append(f"converge {unit}: unreadable "
                                       f"report: {exc!r}")
            else:
                self.errors.append(f"converge {unit}: exit {rc}: "
                                   f"{err.strip()}")
            self.bytes_written += len(out.encode()) + sum(
                p.stat().st_size for p in paths if p.exists())
            for p in paths:
                p.unlink(missing_ok=True)
            outputs[unit] = report
        return outputs

    def check(self, outputs: dict, refs: dict, k: int) -> int:
        failed = 0
        for unit, _, scales, compact in self.studies(k):
            report = outputs.get(unit)
            ref = self.reference(refs, unit, k)
            for i, n in enumerate(scales):
                ok = report is not None and self._cell_ok(report, ref, i, n,
                                                          compact)
                if not ok and report is not None:
                    self.errors.append(f"converge {unit}: cell n={n} "
                                       "breaks the check")
                failed += not ok
        return failed

    @staticmethod
    def _cell_ok(report, ref, i, n, compact) -> bool:
        try:
            errs = [report[k][i] for k in ("sup_errors", "modular_errors",
                                           "luxemburg_errors")]
            ok = (report["scales"][i] == n and report["valid"][i] is True
                  and all(isinstance(e, float) and math.isfinite(e)
                          and e >= 0.0 for e in errs))
        except (IndexError, KeyError, TypeError):
            return False
        if ok and ref is not None:
            sup, mod, lux = errs
            ok = ((sup == ref["sup_errors"][i]) if compact
                  else _close(sup, ref["sup_errors"][i], SUP_RTOL)) \
                and _close(mod, ref["modular_errors"][i], MODULAR_RTOL) \
                and _close(lux, ref["luxemburg_errors"][i], LUX_RTOL)
        return ok


class ConvergeCompact(_Converge):
    """Compact kernel at large n: the dense operator matrix dominates.

    Its inputs are fixed catalog names; the seed changes nothing.
    """

    name = "converge-compact"
    items = 3

    def studies(self, k: int) -> tuple:
        return (("abs-sine", ["--kernel", "bspline:4", "--signal", "abs-sine",
                              "--phi", "power:2", "--scales", "256,512,1024"],
                 (256, 512, 1024), True),)

    def setup(self) -> None:
        self.inputs = (maxprod.kernels.kernel_by_name("bspline:4"),
                       maxprod.signals.catalog("abs-sine"),
                       maxprod.orlicz.phi_by_name("power:2"))


class ConvergeDecay(_Converge):
    """Decay kernels: truncation windows, signed lobes, the line, a CSV."""

    name = "converge-decay"
    seeded_units = ("walk",)
    csv_samples = 2000
    items = 8

    def csv_path(self, k: int) -> Path:
        return self.workdir / f"walk-{k % INPUT_SETS}.csv"

    def studies(self, k: int) -> tuple:
        return (
            ("walk", ["--kernel", "fejer", "--csv", str(self.csv_path(k)),
                      "--domain", "interval:0,1", "--phi", "power:2",
                      "--scales", "256,512"], (256, 512), False),
            ("pulse", ["--kernel", "vallee-poussin", "--signal",
                       "square-pulse", "--domain", "line", "--phi", "power:2",
                       "--scales", "64,128,256"], (64, 128, 256), False),
            ("hat", ["--kernel", "fejer", "--signal", "hat", "--domain",
                     "line", "--phi", "power:2", "--scales", "64,128,256"],
             (64, 128, 256), False),
        )

    def setup(self) -> None:
        ts = np.linspace(0.0, 1.0, self.csv_samples)
        for k in range(INPUT_SETS):
            walk = np.cumsum(self.rng(k).normal(0.0, 0.05, size=ts.size))
            walk = walk - walk.min() + 0.25   # positive: nothing is clamped
            with open(self.csv_path(k), "w", encoding="utf-8") as fh:
                fh.write("t,value\n")
                fh.writelines(f"{float(t)!r},{float(v)!r}\n"
                              for t, v in zip(ts, walk))
        self.inputs = (maxprod.kernels.kernel_by_name("fejer"),
                       maxprod.kernels.kernel_by_name("vallee-poussin"),
                       maxprod.signals.catalog("square-pulse"),
                       maxprod.signals.catalog("hat"),
                       maxprod.orlicz.phi_by_name("power:2"))


# ---------------------------------------------------------------------------
# inequality campaigns

class Verify(Workload):
    """Seeded campaigns at small n: kernel constants recomputed per trial."""

    name = "verify"
    draws = 20
    seeded_units = ("campaigns",)
    # trials each campaign line reports; operator-algebra's four lines share
    # one set of trials
    expected = {"operator-algebra/monotonicity": 20,
                "operator-algebra/sub-additivity": 20,
                "operator-algebra/difference-bound": 20,
                "operator-algebra/homogeneity": 20,
                "max-convexity": 20, "modular-inequality": 20,
                "lp-lipschitz": 20, "zygmund-instance": 5,
                "exponential-instance": 5}
    # items per campaign: one per trial
    group_items = {f.split("/", 1)[0]: t for f, t in expected.items()}
    items = sum(group_items.values())

    def campaign_seed(self, k: int) -> int:
        """The CLI's --seed for input set k: distinct for every (seed, k)."""
        return self.seed * INPUT_SETS + k % INPUT_SETS

    def setup(self) -> None:
        k = maxprod.kernels
        o = maxprod.orlicz
        self.inputs = (k.fejer(), k.de_la_vallee_poussin(), k.bspline(4),
                       k.bspline(5), o.power_phi(1), o.power_phi(2),
                       o.zygmund_phi(1, 1), o.exponential_phi(1))

    def run_pass(self, k: int, draws: int | None = None):
        return call_cli(["verify", "--draws", str(draws or self.draws),
                         "--seed", str(self.campaign_seed(k))])

    def warm_up(self) -> None:
        self.run_pass(0, draws=2)

    def collect(self, raw) -> dict:
        rc, out, err = raw
        self.bytes_written = len(out.encode())
        if rc != 0:
            self.errors.append(f"verify: exit {rc}: {err.strip()}")
        lines = []
        for line in out.splitlines():
            m = _VERIFY_LINE.match(line)
            if m:
                worst = None if m[4] == "n/a" else float(m[4])
                lines.append([m[1], int(m[2]), int(m[3]), worst])
        return {"campaigns": {"rc": rc, "lines": lines}}

    def check(self, outputs: dict, refs: dict, k: int) -> int:
        got = outputs["campaigns"]
        if got["rc"] != 0:
            return self.items
        ref = self.reference(refs, "campaigns", k)
        ref_lines = {} if ref is None else {l[0]: l for l in ref["lines"]}
        lines = {l[0]: l for l in got["lines"]}
        bad_groups = set()
        for family, trials in self.expected.items():
            group = family.split("/", 1)[0]
            line = lines.get(family)
            ok = line is not None and line[1] == trials and line[2] == 0
            if ok and ref is not None:
                want = ref_lines.get(family)
                ok = want is not None and line[1:3] == want[1:3] and _close(
                    line[3], want[3], PRINTED_RTOL, WORST_ATOL[group])
            if not ok:
                self.errors.append(f"verify: {family} breaks the check: "
                                   f"{line}")
                bad_groups.add(group)
        return sum(self.group_items[g] for g in bad_groups)


# ---------------------------------------------------------------------------
# Orlicz norms

def exact_lp_norm(poly, p: int) -> float:
    """||f||_p of a non-negative piecewise polynomial, from exact integrals."""
    pow_ = np.polynomial.polynomial.polypow
    coeffs = [pow_(c[::-1], p)[::-1] for c in poly.coeffs]
    lo, hi = poly.domain
    return maxprod.signals.PiecewisePoly(poly.edges, coeffs).integral(
        lo, hi) ** (1.0 / p)


class OrliczNorms(Workload):
    """Luxemburg norms and modulars of random piecewise polynomials."""

    name = "orlicz-norms"
    signals = 20
    phis = ("power:1", "power:2", "power:5", "zygmund:1,1", "exponential:1")
    window = (0.0, 1.0)
    tol = 1e-10
    seeded_units = ("norms",)
    items = 2 * signals

    def setup(self) -> None:
        sg = maxprod.signals
        phis = [maxprod.orlicz.phi_by_name(p) for p in self.phis]
        self.sets = []
        for k in range(INPUT_SETS):
            rng = self.rng(k)
            polys = [sg.random_piecewise_poly(rng)
                     for _ in range(self.signals)]
            self.sets.append([(poly, poly.to_signal(name=f"poly{i}"),
                               phis[i % len(phis)], self.phis[i % len(phis)])
                              for i, poly in enumerate(polys)])
        self._exact = {}

    def run_pass(self, k: int, count: int | None = None):
        o = maxprod.orlicz
        out = []
        for _, f, phi, _ in self.sets[k % INPUT_SETS][:count]:
            try:
                norm = o.luxemburg_norm(phi, f, self.window, tol=self.tol)
                mod = o.modular(phi, f, self.window, tol=self.tol,
                                scale=1.0 / norm)
            except Exception as exc:  # an item that raises is a failed item
                self.errors.append(f"{f.name}: {type(exc).__name__}: {exc}")
                out.append(None)
                continue
            out.append([norm, mod])
        return out

    def warm_up(self) -> None:
        self.run_pass(0, count=len(self.phis))

    def collect(self, raw) -> dict:
        return {"norms": raw}

    def exact_norms(self, k: int) -> list:
        """Exact L^p norms of set k's power:p cases (None for other phis)."""
        k %= INPUT_SETS
        if k not in self._exact:
            self._exact[k] = [exact_lp_norm(poly, int(spec.split(":")[1]))
                              if spec.startswith("power:") else None
                              for poly, _, _, spec in self.sets[k]]
        return self._exact[k]

    def check(self, outputs: dict, refs: dict, k: int) -> int:
        got = outputs["norms"]
        ref = self.reference(refs, "norms", k)
        failed = 0
        for i, (pair, exact) in enumerate(zip(got, self.exact_norms(k))):
            if pair is None:
                failed += 2
                continue
            norm, mod = pair
            want = (None, None) if ref is None else ref[i]
            norm_ok = math.isfinite(norm) and norm > 0.0 \
                and (exact is None or _close(norm, exact, NORM_EXACT_RTOL)) \
                and (ref is None or _close(norm, want[0], NORM_RTOL))
            mod_ok = abs(mod - 1.0) <= MODULAR_ONE_ATOL \
                and (ref is None or _close(mod, want[1], 0.0,
                                           MODULAR_ONE_ATOL))
            if not (norm_ok and mod_ok):
                self.errors.append(f"set {k} poly{i}: norm {norm!r} (exact "
                                   f"{exact!r}, ref {want[0]!r}), modular "
                                   f"{mod!r}")
            failed += (not norm_ok) + (not mod_ok)
        return failed


WORKLOADS = {w.name: w for w in (ConvergeCompact, ConvergeDecay, Verify,
                                 OrliczNorms)}


def load_references(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

"""Command-line front end.

Subcommands:

* ``kernel-info``  -- moments, lower-bound constants and the admissibility
  verdict for a catalog kernel.
* ``reconstruct``  -- CSV of (x, f(x), K_n f(x)) on an evaluation grid.
* ``converge``     -- convergence study; writes <out>.json and <out>.csv.
* ``verify``       -- seeded randomized inequality campaigns.

Exit codes: 0 ok, 1 campaign failure, 2 unknown catalog name, negative
signal, or malformed, oversized or imprecise argument or CSV row,
3 inadmissible kernel, 4 empty lattice index set, 5 I/O failure, 6
numerical failure (an unconverged quadrature, an uncertified truncation).

Catalog names: ``bspline:<k>`` takes an order k in 1..9, the phi-functions
finite parameters and ``constant:<c>`` a finite c.  A run may span at most
``MAX_CELLS`` lattice cells at its largest scale n (n times the length of
``--domain``, or on the line of the signal's support widened by 2 on each
side; ``verify`` counts at n = 32) and ask for at most ``MAX_CELLS``
``--grid`` points; |n x| must stay below 2**52 on that window.
``--domain`` must lie inside a catalog signal's own domain, and
``converge`` runs on exactly that domain.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import analysis
from .errors import (EmptyIndexSetError, InadmissibleKernelError,
                     MaxprodError, UnknownNameError)
from .kernels import (check_assumptions, ensure_l1, kernel_by_name,
                      lower_bound_constant)
from .operators import maxprod_kantorovich_grid, operator_config
from .orlicz import phi_by_name
from .signals import catalog, from_csv

EXIT_OK = 0
EXIT_CAMPAIGN_FAILURE = 1
EXIT_UNKNOWN_NAME = 2
EXIT_INADMISSIBLE = 3
EXIT_EMPTY_INDEX_SET = 4
EXIT_IO = 5
EXIT_NUMERICAL = 6

# converge's peak RSS grows by about 1.5 KiB per lattice cell (361 MiB at
# 2**18 cells: bspline:4 on abs-sine), so the largest accepted run stays
# under 1 GiB
MAX_CELLS = 1 << 18


def _parse_domain(spec: str):
    """'interval:a,b' -> (a, b); 'line' -> None; bare 'interval'/'bounded'
    defaults to (0, 1)."""
    s = spec.strip().lower()
    if s in ("line", "real_line", "r"):
        return None
    if s in ("interval", "bounded", "bounded_interval"):
        return (0.0, 1.0)
    if s.startswith("interval:") or s.startswith("bounded:"):
        body = s.split(":", 1)[1]
        try:
            a, b = (float(t) for t in body.split(","))
        except ValueError:
            raise UnknownNameError(f"malformed domain spec: {spec!r}") from None
        if not -math.inf < a < b < math.inf:
            raise UnknownNameError(f"empty or unbounded domain: {spec!r}")
        return (a, b)
    raise UnknownNameError(f"unknown domain spec: {spec!r}")


def _parse_scales(spec: str) -> list[int]:
    try:
        scales = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise UnknownNameError(f"malformed scales list: {spec!r}") from None
    if not scales or any(b <= a for a, b in zip(scales, scales[1:])):
        raise UnknownNameError("scales must be a non-empty ascending list")
    return [_positive_int(n, "--scales") for n in scales]


def _positive_int(value: int, flag: str) -> int:
    if value < 1:
        raise UnknownNameError(f"{flag} must be a positive integer, "
                               f"got {value}")
    return value


def _positive_float(value: float, flag: str) -> float:
    if not 0.0 < value < math.inf:
        raise UnknownNameError(f"{flag} must be a finite positive number, "
                               f"got {value!r}")
    return value


def _check_scale(n: int, window: tuple[float, float]) -> None:
    """Reject a scale whose lattice over ``window`` is too large to
    allocate, or whose lattice arguments n x - k are no longer exact."""
    a, b = window
    where = f"n={n} on [{a:g}, {b:g}]"
    if n * (b - a) > MAX_CELLS:
        raise UnknownNameError(f"{where} spans {n * (b - a):.4g} lattice "
                               f"cells; at most {MAX_CELLS} are allowed")
    if n * max(abs(a), abs(b)) >= 2.0 ** 52:
        raise UnknownNameError(f"{where} reaches |n x| >= 2**52, where "
                               "lattice arguments lose their precision")


def _window(f, domain) -> tuple[float, float]:
    """The bounded domain, or on the line the support widened by 2."""
    if domain is not None:
        return domain
    return f.support[0] - 2.0, f.support[1] + 2.0


def _off_domain(f, spec: str) -> UnknownNameError:
    where = "the line" if f.is_line else "[{:g}, {:g}]".format(*f.domain)
    return UnknownNameError(f"signal {f.name!r} lives on {where}, not on "
                            f"--domain {spec}")


def _load_signal(args, domain):
    if getattr(args, "csv", None):
        if domain is None:
            raise UnknownNameError("--csv signals need a bounded --domain")
        try:
            return from_csv(args.csv, domain)
        except ValueError as exc:
            raise UnknownNameError(str(exc)) from None
    f = catalog(args.signal)
    if f.domain is not None and (domain is None or not (
            f.domain[0] <= domain[0] and domain[1] <= f.domain[1])):
        raise _off_domain(f, args.domain)
    return f


def _cmd_kernel_info(args) -> int:
    kernel = kernel_by_name(args.kernel)
    kind = "line" if _parse_domain(args.domain) is None else "interval"
    diag = check_assumptions(kernel, kind,
                             beta=_positive_float(args.beta, "--beta"))
    l1 = ensure_l1(kernel)
    payload = {
        "kernel": kernel.name,
        "domain_kind": diag.domain_kind,
        "beta": diag.beta,
        "moments": {f"m_{k:g}": v for k, v in sorted(diag.m_beta.items())},
        "a_chi_bounded": diag.a_chi_bounded,
        "a_chi_line": diag.a_chi_line,
        "sup_norm": kernel.sup_norm,
        "l1_norm": l1,
        "satisfies_chi1": diag.satisfies_chi1,
        "satisfies_chi2": diag.satisfies_chi2,
        "satisfies_chi2_prime": diag.satisfies_chi2_prime,
        "admissible": diag.admissible,
    }
    if args.json:
        # strict JSON: a divergent moment is null
        moments = {name: None if math.isinf(v) else v
                   for name, v in payload["moments"].items()}
        print(json.dumps({**payload, "moments": moments}, indent=2,
                         sort_keys=True, allow_nan=False))
        return EXIT_OK
    print(f"kernel: {kernel.name}")
    for name, value in payload["moments"].items():
        print(f"  {name} = {value:.12g}")
    print(f"  a_chi on [-3/2, 3/2] = {diag.a_chi_bounded:.12g}")
    print(f"  a_chi on [-1/2, 1/2] = {diag.a_chi_line:.12g}")
    print(f"  sup_norm = {kernel.sup_norm}")
    print(f"  l1_norm  = {l1:.12g}")
    print(f"  chi1 (beta={args.beta:g}): "
          f"{'satisfied' if diag.satisfies_chi1 else 'FAILS'}")
    print(f"  chi2: {'satisfied' if diag.satisfies_chi2 else 'FAILS'}   "
          f"chi2': {'satisfied' if diag.satisfies_chi2_prime else 'FAILS'}")
    verdict = "admissible" if diag.admissible else "NOT admissible"
    print(f"  verdict ({diag.domain_kind}): {verdict}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    kernel = kernel_by_name(args.kernel)
    domain = _parse_domain(args.domain)
    f = _load_signal(args, domain)
    window = _window(f, domain)
    _check_scale(_positive_int(args.n, "--n"), window)
    config = operator_config(kernel, args.n, domain)
    if _positive_int(args.grid, "--grid") > MAX_CELLS:
        raise UnknownNameError(f"--grid must be at most {MAX_CELLS}, "
                               f"got {args.grid}")
    grid = np.linspace(*window, args.grid)
    values = maxprod_kantorovich_grid(config, f, grid)
    fv = np.asarray(f.evaluate(grid), dtype=float)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f", "K_n_f"])
        for x, a, b in zip(grid, fv, values):
            writer.writerow([repr(float(x)), repr(float(a)), repr(float(b))])
    print(f"wrote {args.out} ({grid.size} rows, kernel={kernel.name}, "
          f"n={args.n})")
    return EXIT_OK


def _cmd_converge(args) -> int:
    kernel = kernel_by_name(args.kernel)
    phi = phi_by_name(args.phi)
    domain = _parse_domain(args.domain)
    f = _load_signal(args, domain)
    if f.domain != domain:
        raise _off_domain(f, args.domain)
    scales = _parse_scales(args.scales)
    _check_scale(scales[-1], _window(f, domain))
    report = analysis.run_convergence(
        f, kernel, phi, _positive_float(args.lam, "--lambda"), scales)
    out = Path(args.out)
    json_path = out.with_suffix(".json")
    csv_path = out.with_suffix(".csv")
    report.to_json(json_path)
    report.to_csv(csv_path)
    rate = "n/a" if report.fitted_rate is None else f"{report.fitted_rate:.3f}"
    print(f"wrote {json_path} and {csv_path} "
          f"(sup-error rate {rate}, lambda={args.lam:g})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    domain = _parse_domain(args.domain)
    if domain is None:
        raise UnknownNameError("verify campaigns run on a bounded domain")
    _check_scale(max(analysis.CAMPAIGN_SCALES), domain)
    kernels = None
    if args.kernel:
        kernel = kernel_by_name(args.kernel)
        a = lower_bound_constant(kernel, "interval")
        if a <= 0:
            raise InadmissibleKernelError(
                f"kernel {kernel.name!r} fails the bounded-domain "
                f"admissibility gate (inf = {a:.3e}); campaign skipped")
        kernels = [kernel]
    size = args.draws
    if size < 0:
        raise UnknownNameError(f"--draws must be >= 0, got {size}")
    if args.seed < 0:
        raise UnknownNameError(f"--seed must be >= 0, got {args.seed}")
    tol = _positive_float(args.tol, "--tol")
    if size == 0:
        print("campaign size 0: nothing to verify")
        return EXIT_OK
    # one instance per catalog kernel, so that the campaigns share each
    # constant the kernel memoizes
    shared = functools.cache(kernel_by_name)
    results = analysis.campaign_operator_algebra(size, args.seed, kernels=(
        kernels or [shared(name) for name in analysis.ALGEBRA_KERNELS]),
        interval=domain)
    results.append(analysis.campaign_max_convexity(size, args.seed))
    results += [analysis.campaign_pair_inequality(
        family, max(1, size // family.share), args.seed,
        kernels or [shared(name) for name in family.kernels], domain, tol)
        for family in analysis.PAIR_FAMILIES.values()]
    failed = False
    for r in results:
        status = "pass" if r.passed else "FAIL"
        worst = "n/a" if math.isinf(r.worst_slack) else f"{r.worst_slack:.3e}"
        print(f"{r.family:<34s} trials={r.trials:<5d} "
              f"failures={r.failures:<4d} worst_slack={worst}  [{status}]")
        failed = failed or not r.passed
    return EXIT_CAMPAIGN_FAILURE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxprod",
        description="Max-product Kantorovich sampling operators: kernel "
                    "diagnostics, reconstruction, convergence studies and "
                    "inequality campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel-info", help="kernel diagnostics")
    p.add_argument("--kernel", required=True)
    p.add_argument("--domain", default="interval")
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kernel_info)

    p = sub.add_parser("reconstruct", help="sample K_n f on a grid")
    p.add_argument("--kernel", required=True)
    p.add_argument("--signal", default="ramp")
    p.add_argument("--csv", default=None, help="ingest a (t, value) CSV")
    p.add_argument("--domain", default="interval:0,1")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("converge", help="convergence study")
    p.add_argument("--kernel", required=True)
    p.add_argument("--phi", default="power:2")
    p.add_argument("--signal", default="ramp")
    p.add_argument("--csv", default=None)
    p.add_argument("--domain", default="interval:0,1")
    p.add_argument("--scales", default="8,16,32,64")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("verify", help="randomized inequality campaigns")
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--kernel", default=None,
                   help="restrict campaigns to one kernel")
    p.add_argument("--domain", default="interval:0,1")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    codes = {UnknownNameError: EXIT_UNKNOWN_NAME,
             InadmissibleKernelError: EXIT_INADMISSIBLE,
             EmptyIndexSetError: EXIT_EMPTY_INDEX_SET, OSError: EXIT_IO,
             MaxprodError: EXIT_NUMERICAL}   # after its subclasses
    try:   # a warning, such as from_csv's clamp, is one line as well
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                f"maxprod: warning: {message}", file=sys.stderr)
            return args.func(args)
    except tuple(codes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in codes.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

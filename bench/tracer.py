"""Spans and counters recorded from outside the program.

``install`` replaces every public function of the traced ``maxprod``
modules with a wrapper that records a span (name, start, end, parent), in
the defining module and in every module that imported the function by name.
Kernels returned by kernels-layer functions get a counting ``evaluate``:
each call adds its element count and time to the innermost open span, but
records no span of its own, because a verify pass makes ~90k such calls.

Spans stay in memory; ``layer_metrics`` turns one traced pass into the
per-layer metrics and ``dump`` writes the spans out when the run ends.
A span's self time is its duration minus the part of that interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

import numpy as np

LAYERS = ("kernels", "signals", "operators", "quadrature", "orlicz",
          "analysis", "cli")

# Kernel constants: computations that depend only on the kernel and the
# domain kind, yet run again on every call.
CONSTANTS = frozenset({"kernels.moment", "kernels.lower_bound_constant",
                       "kernels.l1_norm"})
MEAN_TABLE = frozenset({"signals.mean_values", "signals.cell_means"})
SAMPLES = frozenset({"orlicz.modular_from_samples",
                     "orlicz.luxemburg_from_samples"})
# Operator spans that only build configuration, not operator values.
OPERATOR_SETUP = frozenset({"operators.operator_config",
                            "operators.shift_wrapper"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "kernel_s",
                 "kernel_pairs", "kernel_max_bytes")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None
        self.kernel_s = 0.0
        self.kernel_pairs = 0
        self.kernel_max_bytes = 0

    def add(self, key, value):
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = self.attrs.get(key, 0) + value


class Tracer:
    """In-memory span recorder for one traced pass.

    One open-span stack: the traced program must run on one thread, which
    the benchmark's MAXPROD_THREADS=1 guarantees.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.kernel_scalar_calls = 0
        self.kernel_pairs = 0
        self.kernel_s = 0.0
        self.constant_keys: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def on_kernel(self, size: int, nbytes: int, seconds: float) -> None:
        self.kernel_scalar_calls += size == 1
        self.kernel_pairs += size
        self.kernel_s += seconds
        if self.stack:
            span = self.spans[self.stack[-1]]
            span.kernel_s += seconds
            span.kernel_pairs += size
            span.kernel_max_bytes = max(span.kernel_max_bytes, nbytes)


# ---------------------------------------------------------------------------
# self time

def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(lo, s), min(hi, e)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span given as (start, end, parent index or -1)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s, e, p in spans:
        if p >= 0:
            children[p].append((s, e))
    return [(e - s) - _covered(s, e, children[i])
            for i, (s, e, _) in enumerate(spans)]


def root_coverage(spans, lo: float, hi: float) -> float:
    """Time in [lo, hi] covered by top-level spans."""
    return _covered(lo, hi, [(s, e) for s, e, p in spans if p < 0])


# ---------------------------------------------------------------------------
# wrappers

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_points(span: Span, fn):
    def integrand(x):
        span.add("fn_points", int(np.size(x)))
        return fn(x)
    return integrand


def _useful_pairs(config, table, xs) -> int:
    """Lattice pairs with |n x - k| < support among the k a table holds."""
    s = config.kernel.support
    u = config.n * np.atleast_1d(np.asarray(xs, dtype=float))
    lo = np.maximum(np.floor(u - s) + 1.0, table.k_lo)
    hi = np.minimum(np.ceil(u + s) - 1.0, table.k_hi)
    return int(np.sum(np.maximum(hi - lo + 1.0, 0.0)))


def _counting_evaluate(tracer: Tracer, fn):
    def evaluate(x):
        t0 = time.perf_counter()
        out = fn(x)
        dt = time.perf_counter() - t0
        size = int(np.size(x))
        tracer.on_kernel(size, int(getattr(x, "nbytes", 8 * size)), dt)
        return out
    evaluate.counted = True
    return evaluate


def _make_wrapper(tracer: Tracer, name: str, fn, kernel_cls):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        span = tracer.spans[idx]
        if name == "quadrature.adaptive" and args:
            args = (_count_points(span, args[0]),) + args[1:]
        elif name == "quadrature.adaptive":
            kwargs["fn"] = _count_points(span, kwargs["fn"])
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if layer == "kernels" and isinstance(result, kernel_cls) \
                and not getattr(result.evaluate, "counted", False):
            result.evaluate = _counting_evaluate(tracer, result.evaluate)
        if name in CONSTANTS:
            kernel = args[0] if args else kwargs.get("kernel")
            tracer.constant_keys.append(
                (getattr(kernel, "name", None), name, repr(args[1:]),
                 repr(sorted(kwargs.items()))))
        elif name == "quadrature.adaptive":
            span.add("inf", int(math.isinf(result)))
        elif name == "quadrature.composite_nodes":
            span.add("nodes", int(np.size(result[0])))
        elif name == "signals.mean_values":
            span.add("cells", int(np.size(result.values)))
        elif name == "operators.evaluate_with_table_den":
            config = _arg(args, kwargs, 0, "config")
            table = _arg(args, kwargs, 1, "table")
            xs = _arg(args, kwargs, 2, "xs")
            span.add("points", int(np.size(xs)))
            if config.kernel.support is not None:
                span.add("useful", _useful_pairs(config, table, xs))
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the public functions of every traced layer; returns the undo list."""
    kernel_cls = importlib.import_module("maxprod.kernels").Kernel
    holders = [m for n, m in sorted(sys.modules.items())
               if n == "maxprod" or n.startswith("maxprod.")]
    patches = []
    for layer in LAYERS:
        mod = importlib.import_module(f"maxprod.{layer}")
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            wrapper = _make_wrapper(tracer, f"{layer}.{attr}", fn, kernel_cls)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        patches.append((holder, key, fn))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for holder, key, fn in reversed(patches):
        setattr(holder, key, fn)


# ---------------------------------------------------------------------------
# per-layer metrics

def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Totals:
    """Sums over a group of spans."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.kernel_s = 0.0
        self.kernel_pairs = 0
        self.kernel_max_bytes = 0
        self.compact_pairs = 0   # kernel pairs of compact-kernel evaluations
        self.ms: list[float] = []
        self.attrs: dict = {}

    def add(self, span: Span, self_s: float) -> None:
        self.calls += 1
        self.self_s += self_s
        self.kernel_s += span.kernel_s
        self.kernel_pairs += span.kernel_pairs
        self.kernel_max_bytes = max(self.kernel_max_bytes,
                                    span.kernel_max_bytes)
        self.ms.append((span.end - span.start) * 1e3)
        for key, value in (span.attrs or {}).items():
            self.attrs[key] = self.attrs.get(key, 0) + value
        if span.attrs and "useful" in span.attrs:
            self.compact_pairs += span.kernel_pairs


def _group(spans, selfs, pred) -> _Totals:
    out = _Totals()
    for span, self_s in zip(spans, selfs):
        if pred(span.name):
            out.add(span, self_s)
    return out


def layer_metrics(tracer: Tracer, lo: float, hi: float) -> tuple[dict, dict]:
    """Per-layer metrics and self-time shares of one traced pass [lo, hi]."""
    spans = tracer.spans
    triples = [(s.start, s.end, s.parent) for s in spans]
    selfs = self_times(triples)

    def group(pred):
        return _group(spans, selfs, pred)

    norms = {i for i, s in enumerate(spans)
             if s.name == "orlicz.luxemburg_norm"}
    quads_in_norms = 0
    for s in spans:
        p = s.parent if s.name == "quadrature.adaptive" else -1
        while p >= 0 and p not in norms:
            p = spans[p].parent
        quads_in_norms += p >= 0
    const = group(CONSTANTS.__contains__)
    mean = group(MEAN_TABLE.__contains__)
    ops = group(lambda n: n.startswith("operators.")
                and n not in OPERATOR_SETUP)
    quad = group("quadrature.adaptive".__eq__)
    lux = group("orlicz.luxemburg_norm".__eq__)
    checks = group(lambda n: n.startswith("analysis.check_"))
    metrics = {
        "kernels.evaluate.pairs": tracer.kernel_pairs,
        "kernels.evaluate.ns_per_pair":
            _ratio(tracer.kernel_s * 1e9, tracer.kernel_pairs),
        "kernels.evaluate.scalar_calls": tracer.kernel_scalar_calls,
        "kernels.constants.calls": const.calls,
        "kernels.constants.self_s": const.self_s,
        "kernels.constants.distinct_ratio":
            _ratio(len(set(tracer.constant_keys)), const.calls),
        "signals.mean_values.cells": mean.attrs.get("cells", 0),
        "signals.mean_values.ns_per_cell":
            _ratio(mean.self_s * 1e9, mean.attrs.get("cells", 0)),
        "signals.mean_values.self_s": mean.self_s,
        "signals.from_csv.self_s": group("signals.from_csv".__eq__).self_s,
        "operators.eval.points": ops.attrs.get("points", 0),
        "operators.eval.pairs": ops.kernel_pairs,
        "operators.eval.ns_per_pair":
            _ratio((ops.self_s - ops.kernel_s) * 1e9, ops.kernel_pairs),
        "operators.eval.useful_pair_ratio":
            _ratio(ops.attrs.get("useful", 0), ops.compact_pairs),
        "operators.eval.max_block_mib": ops.kernel_max_bytes / 2.0 ** 20,
        "quadrature.adaptive.calls": quad.calls,
        "quadrature.adaptive.fn_points": quad.attrs.get("fn_points", 0),
        "quadrature.adaptive.self_s": quad.self_s,
        "quadrature.adaptive.inf_results": quad.attrs.get("inf", 0),
        "quadrature.composite_nodes.nodes":
            group("quadrature.composite_nodes".__eq__).attrs.get("nodes", 0),
        "orlicz.luxemburg_norm.ms_p50": _pct(lux.ms, 50),
        "orlicz.luxemburg_norm.ms_p90": _pct(lux.ms, 90),
        "orlicz.luxemburg_norm.quads_per_norm":
            _ratio(quads_in_norms, lux.calls),
        "orlicz.modular.self_s": group("orlicz.modular".__eq__).self_s,
        "orlicz.samples.self_s": group(SAMPLES.__contains__).self_s,
        "analysis.check.ms_p50": _pct(checks.ms, 50),
        "analysis.check.ms_p90": _pct(checks.ms, 90),
        "analysis.self_s": group(lambda n: n.startswith("analysis.")).self_s,
        "cli.self_s": group(lambda n: n.startswith("cli.")).self_s,
    }
    wall = hi - lo
    shares = {"harness": wall - root_coverage(triples, lo, hi)}
    for span, self_s in zip(spans, selfs):
        key = "kernels.constants" if span.name in CONSTANTS \
            else span.name.split(".", 1)[0]
        shares[key] = shares.get(key, 0.0) + self_s
    shares = {k: v / wall for k, v in sorted(shares.items())}
    # overlaps the groups above: every Kernel.evaluate call, whoever made it
    shares["kernels.evaluate (all callers)"] = tracer.kernel_s / wall
    return metrics, shares


def dump(path, passes) -> None:
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for pass_no, tracer in enumerate(passes):
            for i, s in enumerate(tracer.spans):
                rec = {"pass": pass_no, "id": i, "name": s.name,
                       "start": s.start, "end": s.end, "parent": s.parent}
                if s.kernel_pairs:
                    rec["kernel_pairs"] = s.kernel_pairs
                    rec["kernel_s"] = s.kernel_s
                if s.attrs:
                    rec.update(s.attrs)
                fh.write(json.dumps(rec) + "\n")

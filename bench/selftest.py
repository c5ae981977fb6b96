"""Self-tests of the benchmark's own arithmetic and correctness check.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Covers the self-time arithmetic on synthetic span trees, the counters the
traced run takes from a small real call, and the correctness check: outputs
equal to the recorded references pass, and one corrupted reference value
makes items fail (fail_ratio > 0), for every workload and on one real pass.
"""

from __future__ import annotations

import copy
import math
import sys

import run

if not run.prepare():
    sys.exit(2)

import numpy as np  # noqa: E402

import maxprod  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFS = workloads.load_references(run.BENCH / "references.json")


def _close(a, b):
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# self time

def test_self_time_nested_and_overlapping_children():
    spans = [(0.0, 10.0, -1),   # 0: root
             (1.0, 4.0, 0),     # 1: child
             (3.0, 6.0, 0),     # 2: child overlapping 1
             (9.0, 12.0, 0),    # 3: child running past the parent's end
             (2.0, 3.0, 1),     # 4: grandchild, not a child of the root
             (5.0, 5.0, 0)]     # 5: zero length
    got = tracer.self_times(spans)
    # root: 10 minus the union [1, 6] + [9, 10] = 10 - 6
    want = [4.0, 2.0, 3.0, 3.0, 1.0, 0.0]
    assert all(_close(g, w) for g, w in zip(got, want)), got


def test_self_time_disjoint_children_sum():
    spans = [(0.0, 1.0, -1), (0.1, 0.2, 0), (0.3, 0.6, 0), (0.65, 0.7, 0)]
    assert _close(tracer.self_times(spans)[0], 1.0 - 0.45)


def test_root_coverage_ignores_nested_spans():
    spans = [(1.0, 2.0, -1), (1.5, 3.0, 0), (4.0, 6.0, -1)]
    assert _close(tracer.root_coverage(spans, 0.0, 5.0), 2.0)


# ---------------------------------------------------------------------------
# counters from a real call

def test_traced_counters_on_operator_and_norm():
    tr = tracer.Tracer()
    original = maxprod.operators.evaluate_with_table_den
    patches = tracer.install(tr)
    try:
        k = maxprod.kernels
        kernel = k.bspline(4)
        config = maxprod.operators.operator_config(kernel, 8, (0.0, 1.0))
        f = maxprod.signals.catalog("ramp")
        xs = np.linspace(0.0, 1.0, 10)
        maxprod.operators.maxprod_kantorovich_grid(config, f, xs)
        maxprod.orlicz.luxemburg_norm(maxprod.orlicz.power_phi(2), f,
                                      (0.0, 1.0), tol=1e-6)
        assert maxprod.analysis.evaluate_with_table_den is not original
    finally:
        tracer.uninstall(patches)
    assert maxprod.operators.evaluate_with_table_den is original
    assert maxprod.analysis.evaluate_with_table_den is original
    metrics, shares = tracer.layer_metrics(tr, tr.spans[0].start,
                                           tr.spans[-1].end)
    # 10 points against the 8 cells of n = 8 on [0, 1]
    assert metrics["operators.eval.points"] == 10
    assert metrics["operators.eval.pairs"] == 80
    useful = sum(sum(1 for kk in range(8) if abs(8 * x - kk) < 2.0)
                 for x in xs)
    assert _close(metrics["operators.eval.useful_pair_ratio"], useful / 80)
    assert _close(metrics["operators.eval.max_block_mib"], 80 * 8 / 2 ** 20)
    assert metrics["signals.mean_values.cells"] == 8
    assert metrics["kernels.constants.calls"] == 1   # lower_bound_constant
    assert metrics["kernels.evaluate.scalar_calls"] > 0   # golden section
    quads = metrics["quadrature.adaptive.calls"]
    assert quads >= 10 and metrics["orlicz.luxemburg_norm.quads_per_norm"] \
        == quads
    assert metrics["quadrature.adaptive.fn_points"] >= 3 * quads
    assert all(v >= 0.0 for v in shares.values())


# ---------------------------------------------------------------------------
# correctness check

def _workload(name, seed=0, setup=False):
    workdir = run.WORK / "selftest" / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    w = workloads.WORKLOADS[name](seed, workdir)
    if setup:
        w.setup()
    return w


def _recorded_outputs(w, refs, k):
    return {unit: copy.deepcopy(per_seed[w.ref_key(unit, k)])
            for unit, per_seed in refs.items()}


def _corrupt_and_check(name, corrupt, setup=False, k=1):
    refs = REFS[name]
    w = _workload(name, setup=setup)
    outputs = _recorded_outputs(w, refs, k)
    assert w.check(outputs, refs, k) == 0, w.errors
    bad = copy.deepcopy(refs)
    corrupt(bad)
    failed = w.check(outputs, bad, k)
    assert 0 < failed <= w.items, failed
    return failed


def test_corrupt_compact_sup_by_one_ulp_fails():
    def corrupt(refs):
        sups = refs["abs-sine"]["*"]["sup_errors"]
        sups[1] = float(np.nextafter(sups[1], 1.0))
    assert _corrupt_and_check("converge-compact", corrupt) == 1


def test_corrupt_decay_luxemburg_fails():
    def corrupt(refs):
        refs["pulse"]["*"]["luxemburg_errors"][2] *= 1.0 + 1e-7
    assert _corrupt_and_check("converge-decay", corrupt) == 1


def test_corrupt_verify_worst_slack_fails():
    def corrupt(refs):
        lines = refs["campaigns"]["0.1"]["lines"]
        line = next(l for l in lines if l[0] == "lp-lipschitz")
        line[3] *= 1.01   # above the 4 printed digits
    assert _corrupt_and_check("verify", corrupt) == 20


def test_corrupt_norm_fails():
    def corrupt(refs):
        refs["norms"]["0.1"][3][0] *= 1.0 + 1e-6
    assert _corrupt_and_check("orlicz-norms", corrupt, setup=True) == 1


def test_unrecorded_seed_checks_invariants():
    w = _workload("orlicz-norms", seed=0, setup=True)
    outputs = _recorded_outputs(w, REFS["orlicz-norms"], 2)
    assert w.check(outputs, {}, 2) == 0, w.errors
    outputs["norms"][0][1] += 1e-6   # modular(f/|f|) no longer ~ 1
    assert w.check(outputs, {}, 2) == 1


def test_real_pass_with_corrupted_reference():
    """One real converge-decay pass: fail_ratio 0, then > 0."""
    refs = REFS["converge-decay"]
    w = _workload("converge-decay", setup=True)
    outputs = w.collect(w.run_pass(3))
    assert w.check(outputs, refs, 3) == 0, w.errors
    bad = copy.deepcopy(refs)
    bad["walk"]["0.3"]["modular_errors"][0] *= 1.0 + 1e-6
    failed = w.check(outputs, bad, 3)
    assert failed / w.items > 0.0 and failed == 1


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc!r}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

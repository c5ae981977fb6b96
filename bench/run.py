"""maxprod benchmark: one workload per run, in one process, on one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (items) and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, measured with tracing off; with ``--trace 1`` they are its
per-layer metrics, from traced passes that alternate with untraced ones.
The line before it records the seed and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Single-threaded baseline: the program's own pool and every BLAS/OpenMP
# pool numpy might load.  Set before numpy is imported.
THREAD_VARS = ("MAXPROD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5      # fresh interpreters timed per run; setup_s is the median
MIN_PASSES = 2         # untraced passes per --trace 0 run, whatever --seconds
SETUP_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs in this fresh "
                        "interpreter and exit (how setup_s is timed)")
    return p.parse_args(argv)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "maxprod").rglob("*.py")))


def _environment(args, np) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": _git_commit(), "repo.src_lines": _src_lines(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _time_setups(args) -> list[float]:
    """Wall time of fresh interpreters that import and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cpu = []


def _one_pass(w, refs, tally, k, tracer_mod=None):
    """Time pass k (traced when ``tracer_mod`` is given), then check it."""
    tr = patches = None
    if tracer_mod is not None:
        tr = tracer_mod.Tracer()
        patches = tracer_mod.install(tr)
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        raw = w.run_pass(k)
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
    finally:
        if patches is not None:
            tracer_mod.uninstall(patches)
    tally.attempted += w.items
    tally.failed += w.check(w.collect(raw), refs, k)
    tally.cpu.append(cpu)
    return t1 - t0, (tr, t0, t1)


def _run(w, refs, seconds, trace, tracer_mod):
    """Passes until the next one would end after ``seconds``.

    Pass k uses the workload's input set k.  Untraced runs make at least
    MIN_PASSES passes; traced runs make an untraced and a traced pass on each
    input set, at least one of each.
    """
    tally = Tally()
    plain, traced, records = [], [], []
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        plain.append(_one_pass(w, refs, tally, k)[0])
        cycle = statistics.median(plain)
        if trace:
            dt, rec = _one_pass(w, refs, tally, k, tracer_mod)
            traced.append(dt)
            records.append(rec)
            cycle += statistics.median(traced)
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and time.perf_counter() + cycle > deadline:
            return tally, plain, traced, records


def prepare() -> bool:
    """Pin every thread pool to 1 and put the checkout's sources first."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "maxprod" / "__init__.py").is_file():
        print(f"error: no maxprod sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not prepare():
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    setup_times = None if args.setup_only or args.trace else _time_setups(args)

    import numpy as np
    import maxprod
    import tracer
    import workloads

    if not Path(maxprod.__file__).resolve().is_relative_to(SRC):
        print(f"error: maxprod was imported from {maxprod.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload](args.seed, workdir)
    w.setup()
    if args.setup_only:
        return 0
    refs = workloads.load_references(BENCH / "references.json").get(
        args.workload, {})
    w.warm_up()

    tally, plain, traced, records = _run(w, refs, args.seconds, args.trace,
                                         tracer)
    env = _environment(args, np)
    env["passes"] = {"untraced": plain, "traced": traced, "cpu": tally.cpu}
    if args.trace:
        per_pass = [tracer.layer_metrics(tr, lo, hi)
                    for tr, lo, hi in records]
        values = {k: statistics.median(m[k] for m, _ in per_pass)
                  for k in per_pass[0][0]}
        values["cli.bytes_written"] = w.bytes_written
        values["trace.overhead_ratio"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1.0)
        values["repo.src_lines"] = env["repo.src_lines"]
        shares = per_pass[-1][1]
        tracer.dump(workdir / "spans.jsonl", [tr for tr, _, _ in records])
        with open(workdir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "metrics": values,
                       "shares": [s for _, s in per_pass]}, fh, indent=2)
        print("self-time share by layer (last traced pass):")
        for layer, share in shares.items():
            print(f"  {layer:<32s} {100.0 * share:6.2f}%")
        print(f"spans and summary written to {workdir}")
        wanted = spec["per_layer"]
    else:
        values = {
            "items_per_s": statistics.median(w.items / dt for dt in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        env["setup_s"] = setup_times
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 1
    for msg in w.errors[:10]:
        print(f"failed item: {msg}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs that later runs are checked against.

    python3 bench/record_references.py [--seeds 0,1,2,3,4]

Runs one pass of every workload per seed and input set and writes
references.json.  Run it only at the commit that defines the benchmark:
re-recording at a later commit would hide any change in the program's
results.  Outputs that do not
depend on the seed are recorded once, under the key "*"; the others under
"<seed>.<input set>".
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0,1,2,3,4")
    args = p.parse_args(argv)
    if not run.prepare():
        return 2
    import workloads

    refs: dict = {}
    for name, cls in workloads.WORKLOADS.items():
        seeds = [int(s) for s in args.seeds.split(",")]
        for seed in seeds if cls.seeded_units else seeds[:1]:
            w = cls(seed, run.WORK / f"record-{name}-seed{seed}")
            w.workdir.mkdir(parents=True, exist_ok=True)
            w.setup()
            sets = workloads.INPUT_SETS if cls.seeded_units else 1
            for k in range(sets):
                outputs = w.collect(w.run_pass(k))
                if w.check(outputs, {}, k):
                    print(f"{name} seed {seed} set {k}: invariants fail: "
                          f"{w.errors}", file=sys.stderr)
                    return 1
                for unit, value in outputs.items():
                    refs.setdefault(name, {}).setdefault(unit, {})[
                        w.ref_key(unit, k)] = value
            print(f"recorded {name} seed {seed}", flush=True)
    with open(run.BENCH / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

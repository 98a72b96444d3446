"""Self-test of the tracer: exact counts must repeat.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

Runs two traced samples of each workload (or of the one named) with one
seed and compares every `*.calls` and `*.raised` per-layer metric of
BENCHMARK.json plus the derived counts in EXACT.  Prints each difference
and exits 1 if there is any, 0 otherwise.
"""

import argparse
import json
import os
import shutil
import sys
import time

import run

EXACT = ("fock.eigh_dim3_sum", "fock.eigh_useful_ratio", "fock.cutoff_chosen",
         "fluctuations.segment_steps", "serialize.bytes_out")


def traced_counts(workload, names, work):
    argv, out_path = run.invocation(workload, work)
    spans = work / "spans.json"
    sample = run.run_sample(workload, argv, out_path, time.monotonic() + run.RUN_DEADLINE_S,
                            trace=True, spans=spans)
    if sample["errors"] or sample.get("trace") is None:
        raise RuntimeError(f"{workload.name}: traced sample failed: {sample['errors']}")
    values, absent = run.per_layer(names, sample, sample["wall_s"])
    return values, absent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not (run.SRC / "cavityent" / "cli.py").is_file():
        sys.stderr.write(f"error: no cavityent sources under {run.SRC}\n")
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]
             if m["name"].endswith((".calls", ".raised")) or m["name"] in EXACT]
    run.OUT_DIR.mkdir(exist_ok=True)
    work = run.OUT_DIR / f"selftest-{os.getpid()}"
    work.mkdir()
    mismatches = 0
    try:
        for name in [args.workload] if args.workload else list(run.WORKLOADS):
            workload = run.WORKLOADS[name](args.seed)
            workload.reference()
            first, absent = traced_counts(workload, names, work)
            second, _ = traced_counts(workload, names, work)
            diff = {k: (first[k], second[k]) for k in names if first[k] != second[k]}
            mismatches += len(diff)
            for key, (a, b) in diff.items():
                print(f"{name}: {key} differs: {a!r} then {b!r}")
            print(f"{name}: {len(names) - len(diff)}/{len(names)} exact counts repeat"
                  + (f"; absent: {', '.join(absent)}" if absent else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "FAILED" if mismatches else "passed")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Checks the benchmark's deterministic counters against the committed
trajectory.

    python3 scripts/counters.py

Reads the outputs of the two traced smoke runs that scripts/tier1.sh
writes,

    perfbench/run.py --workload W --seed 1 --seconds 2 --trace 1 --smoke
        > target/smoke/W.out        (W = warm-query, audit-cli)

and compares every metric whose unit is count, bytes, ratio or calls
(41 per workload) with the last entry of crates/bench/trajectory.jsonl.
Those metrics are deterministic for a fixed seed; timings are recorded
in the trajectory but never compared. Exits 0 when every counter
matches, and 1 naming each counter that differs (or is missing) when
one does not. A change that moves a counter appends a trajectory entry
and says why in CHANGES.md. Takes no options; works from any cwd.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "crates", "bench", "trajectory.jsonl")
SMOKE_DIR = os.path.join(ROOT, "target", "smoke")
WORKLOADS = ("warm-query", "audit-cli")
COUNTER_UNITS = ("count", "bytes", "ratio", "calls")


def number(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def smoke_counters(workload):
    """The counters of one smoke output: `metric <name> <value> <unit>`."""
    counters = {}
    with open(os.path.join(SMOKE_DIR, workload + ".out")) as out:
        for line in out:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "metric" and parts[3] in COUNTER_UNITS:
                counters[parts[1]] = number(parts[2])
    return counters


def main():
    with open(TRAJECTORY) as f:
        entries = [json.loads(line) for line in f if line.strip()]
    last = entries[-1]
    diffs = []
    for workload in WORKLOADS:
        want = last["workloads"][workload]["counters"]
        got = smoke_counters(workload)
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                diffs.append(
                    f"{workload} {name}: trajectory {want.get(name)}, run {got.get(name)}"
                )
    if diffs:
        print(f"counters: {len(diffs)} differ from trajectory entry {last['rev']}:")
        for d in diffs:
            print(f"  {d}")
        return 1
    total = sum(len(last["workloads"][w]["counters"]) for w in WORKLOADS)
    print(f"counters: all {total} match trajectory entry {last['rev']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

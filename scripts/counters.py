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
one does not; it then also prints the trajectory line of this run (the
short commit of the smoke runs' `git_rev`, `host_cores`, and each
workload's counters). A change that moves a counter appends that line
(plus the untraced medians, if it measured them) and says why in
CHANGES.md. Takes no options; works from any cwd.
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


def smoke_run(workload):
    """The provenance and counters of one smoke output: the
    `provenance <json>` line and the `metric <name> <value> <unit>` lines."""
    provenance, counters = {}, {}
    with open(os.path.join(SMOKE_DIR, workload + ".out")) as out:
        for line in out:
            parts = line.split()
            if parts and parts[0] == "provenance":
                provenance = json.loads(line.split(None, 1)[1])
            elif len(parts) == 4 and parts[0] == "metric" and parts[3] in COUNTER_UNITS:
                counters[parts[1]] = number(parts[2])
    return provenance, counters


def main():
    with open(TRAJECTORY) as f:
        entries = [json.loads(line) for line in f if line.strip()]
    last = entries[-1]
    runs = {workload: smoke_run(workload) for workload in WORKLOADS}
    diffs = []
    for workload, (_, got) in runs.items():
        want = last["workloads"][workload]["counters"]
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                diffs.append(
                    f"{workload} {name}: trajectory {want.get(name)}, run {got.get(name)}"
                )
    if diffs:
        print(f"counters: {len(diffs)} differ from trajectory entry {last['rev']}:")
        for d in diffs:
            print(f"  {d}")
        provenance = runs[WORKLOADS[0]][0]
        entry = {
            "rev": provenance.get("git_rev", "").split("+")[0][:7],
            "host_cores": provenance.get("host_cores"),
            "workloads": {w: {"counters": counters} for w, (_, counters) in runs.items()},
        }
        print("counters: the trajectory line of this run:")
        print(json.dumps(entry, separators=(",", ":")))
        return 1
    total = sum(len(last["workloads"][w]["counters"]) for w in WORKLOADS)
    print(f"counters: all {total} match trajectory entry {last['rev']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

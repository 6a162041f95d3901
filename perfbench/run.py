#!/usr/bin/env python3
"""Builds spec-serve, spec-lint and the perfbench harness from source, then
runs one benchmark workload and passes its output through.

    python3 perfbench/run.py --workload warm-query|audit-cli \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root. Builds go to $CARGO_TARGET_DIR, or to
.bench_build when it is unset. Build output goes to stderr, so the last
line on stdout is the harness's JSON result. See perfbench/NOTES.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for cmd in (
        cargo + ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                 "-p", "hierarchy-serve", "-p", "hierarchy-lint", "--bins"],
        cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode or 1)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)
    bins = os.path.join(target, "release")
    done = subprocess.run(
        [os.path.join(bins, "perfbench"), *sys.argv[1:], "--bin-dir", bins],
        cwd=ROOT,
    )
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

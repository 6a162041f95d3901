#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): offline release build, full test suite,
# and formatting. Everything runs with --offline — the workspace has zero
# external dependencies (the PRNG is vendored in automata/src/random.rs),
# so a network-less container must pass this script end to end.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
# The paper-table binaries each expect() the paper's own claims: Figure 1,
# the §2 examples, minex, Obl_k, the reactivity index and the §5.1
# decision procedures, several of them through the DFA substrate. They run
# from target/, because tab_decision writes BENCH_decision.json into its
# working directory.
(
  cd target
  for bin in fig1_inclusion tab_examples tab_closure tab_obl_hierarchy \
    tab_react_hierarchy tab_logic_equiv tab_responsiveness \
    tab_safety_liveness tab_counterfree tab_decision; do
    "release/$bin" > /dev/null
  done
)
# The workspace run includes the differential suites: the
# abstract-interpretation suite `absint_soundness` (value-set +
# relational domains, paper programs, the parameterized N-process
# families, and the random sweep), the quotient-first suite
# `minimize_soundness` (language preservation, verdict and lint-report
# identity raw vs quotient, idempotence), and the direct-inclusion suite
# `inclusion_soundness` (Streett/Rabin/parity verdicts vs the complement
# oracle, counterexample-lasso replay, structural invariants). Each suite
# runs once: the tests that cover the worker pool pin their own worker
# counts (the pooled classification at 1/2/3/8, the audit report at
# 1/2/4, the daemon's batch, audit and soak tests at 2).
cargo test --offline --workspace --quiet
# The cross-validation and concurrency suites in the release profile too:
# their pass counts are read with `stats_total`, which must see the
# quotient context's passes when no debug tripwire re-runs the raw
# automaton.
cargo test --release --offline -p temporal-properties \
  --test analysis_cross_validation --test parallel_stress --quiet
# Smoke the invariant-vs-explicit benchmark: its expect() lines are the
# acceptance checks (verdict identity, safety discharge incl. Peterson
# under the relational domain, the states-vs-N family series, certificates).
cargo run --release --offline -p hierarchy-bench --bin tab_absint -- --smoke \
  > /dev/null
# The paper's fairness and mutual-exclusion verdicts (TAB-FAIR): its
# expect() lines check Peterson and MUX-SEM, built from the program IR.
cargo run --release --offline -p hierarchy-bench --bin tab_fairness_mutex > /dev/null
# Smoke the quotient-first benchmark: verdict identity raw vs quotient
# and the state/sweep reduction expectations.
cargo run --release --offline -p hierarchy-bench --bin tab_minimize -- --smoke \
  > /dev/null
# Smoke the direct-inclusion benchmark: old-vs-new verdict identity on
# every seeded case is its expect() gate.
cargo run --release --offline -p hierarchy-bench --bin tab_inclusion -- --smoke \
  > /dev/null
# The repository benchmark's correctness gate on both workloads: a traced
# smoke run exits non-zero on a wrong verdict or on a mismatch between
# the daemon's per-response `stats` blocks and the library's counters
# (the only check of the latter, so a response-level cache cannot break
# it silently). It reuses the release build above. The outputs feed the
# counter check below.
mkdir -p target/smoke
for workload in warm-query audit-cli; do
  CARGO_TARGET_DIR=target python3 perfbench/run.py --workload "$workload" \
    --seed 1 --seconds 2 --trace 1 --smoke > "target/smoke/$workload.out"
done
# The smoke runs' deterministic counters must equal the last entry of the
# committed trajectory (crates/bench/trajectory.jsonl); a change that
# moves one appends an entry and says why in CHANGES.md.
python3 scripts/counters.py
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo fmt --check
# The API docs build without a warning: every intra-doc link resolves to
# one public item, so a deleted or renamed function cannot leave a
# dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# For information only: non-test Rust lines per crate.
scripts/loc.sh

echo "tier1: OK"

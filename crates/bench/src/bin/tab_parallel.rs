//! TAB-PAR — thread-scaling of the parallel classification engine: the
//! batch suite (`classify_suite_with`, one automaton per work item),
//! asserted verdict-identical to the sequential classifier at every
//! thread count.
//!
//! Emits `BENCH_parallel.json` with the scaling series. Speedups are
//! measured wall-clock, so they are only meaningful on multi-core hosts;
//! `host_cores` is recorded alongside so a single-core container's
//! degenerate series is not mistaken for a regression (the ≥2× @ 4
//! threads expectation is asserted only when the host has ≥ 4 cores).

use hierarchy_bench::{expect, header, timed};
use hierarchy_core::automata::alphabet::Alphabet;
use hierarchy_core::automata::classify;
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::automata::random;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use std::fmt::Write as _;

fn main() {
    header(
        "TAB-PAR",
        "thread-scaling of the parallel classification engine",
    );
    let sigma = Alphabet::new(["a", "b"]).expect("alphabet");
    let mut rng = StdRng::seed_from_u64(271_828);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores: {host_cores}");

    // 1 / 2 / 4 / N workers, N = the host's parallelism (deduplicated).
    let mut series = vec![1usize, 2, 4, host_cores];
    series.sort_unstable();
    series.dedup();

    // --- Batch suites: (states, pairs) × batch size, classified through
    //     classify_suite_with at each worker count. The 256-state/4-pair
    //     row is the acceptance-criterion suite.
    let combos = [(64usize, 2usize, 32usize), (128, 4, 24), (256, 4, 24)];
    let mut batch_rows = Vec::new();
    let mut speedup_at_4_on_256 = None;
    println!(
        "\n{:>7} {:>6} {:>6} {:>8} {:>12} {:>9}",
        "states", "pairs", "batch", "threads", "suite ms", "speedup"
    );
    for &(n, k, batch) in &combos {
        let auts: Vec<OmegaAutomaton> = (0..batch)
            .map(|_| random::random_streett(&mut rng, &sigma, n, k, 0.2).0)
            .collect();
        let (baseline, t1) = timed(|| classify::classify_suite_with(1, &auts));
        for &threads in &series {
            let (verdicts, ms) = if threads == 1 {
                (baseline.clone(), t1)
            } else {
                timed(|| classify::classify_suite_with(threads, &auts))
            };
            expect(
                "batch verdicts are identical to the sequential classifier",
                verdicts == baseline,
            );
            let speedup = t1 / ms;
            println!("{n:>7} {k:>6} {batch:>6} {threads:>8} {ms:>12.3} {speedup:>8.2}x");
            if n == 256 && threads == 4 {
                speedup_at_4_on_256 = Some(speedup);
            }
            batch_rows.push((n, k, batch, threads, ms, speedup));
        }
    }

    // --- Scaling expectation: wall-clock speedup needs physical cores.
    match speedup_at_4_on_256 {
        Some(speedup) if host_cores >= 4 => expect(
            "≥2x speedup at 4 threads on the 256-state/4-pair batch suite",
            speedup >= 2.0,
        ),
        Some(speedup) => println!(
            "  [--] host has {host_cores} core(s): 4-thread speedup {speedup:.2}x \
             recorded without the multi-core ≥2x assertion"
        ),
        None => unreachable!("the 256-state suite always runs at 4 threads"),
    }

    // --- Machine-readable artifact.
    let mut json = String::from("{\n  \"experiment\": \"TAB-PAR\",\n");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"verdicts_identical\": true,");
    json.push_str("  \"batch_suite\": [\n");
    for (i, (n, k, batch, threads, ms, speedup)) in batch_rows.iter().enumerate() {
        let sep = if i + 1 == batch_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"states\": {n}, \"pairs\": {k}, \"batch\": {batch}, \
             \"threads\": {threads}, \"suite_ms\": {ms:.3}, \
             \"speedup_vs_1\": {speedup:.3}}}{sep}"
        );
    }
    json.push_str("  ]\n}\n");
    let out = "BENCH_parallel.json";
    std::fs::write(out, &json).expect("write BENCH_parallel.json");
    println!("\nwrote {out}");
    println!("\nTAB-PAR complete (parallel engine verdict-identical at every thread count).");
}

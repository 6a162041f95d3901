//! TAB-INCL — the direct inclusion/equivalence oracle
//! (`hierarchy_automata::inclusion`, Angluin & Fisman) against the
//! classical complement+product+emptiness construction, on seeded
//! random Streett suites.
//!
//! The old oracle decides `L(A) ⊆ L(B)` by materializing `A × ¬B` and
//! asking it for emptiness. The direct oracle works on the product graph
//! without materializing a complement or a product automaton (plus the
//! parity fast path when both sides admit a [`ParityView`]). The direct
//! oracle runs on the accepting-cycle kernel of
//! `hierarchy_core::automata::emptiness`, which keeps each Streett pair
//! whole; the old oracle expands the difference's acceptance into its
//! generalized-Rabin DNF, distributing `k` conjoined pairs into `2^k`
//! disjuncts, which is what the ≥2× claim below measures (EXPERIMENTS.md
//! records how the ratio moved). This table measures both oracles
//! on identical equivalence queries, asserts the verdicts are identical
//! on **every** seeded case (the release-mode counterpart of the
//! debug-mode differential tripwire), and asserts the headline claim:
//! at 256 states the direct oracle's median latency is at least 2×
//! better.
//!
//! `--smoke` runs a shrunken suite and skips the JSON artifact so the
//! committed `BENCH_inclusion.json` always describes the full run.

use hierarchy_bench::{expect, header, timed};
use hierarchy_core::automata::inclusion;
use hierarchy_core::automata::prelude::*;
use hierarchy_core::automata::random::random_streett;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use std::fmt::Write as _;

/// Median of a latency sample (sample sizes here are small and even or
/// odd; the midpoint average keeps it honest either way).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Suite {
    states: usize,
    pairs: usize,
    density: f64,
    batch: usize,
    old_ms: Vec<f64>,
    new_ms: Vec<f64>,
    verdicts_equal: bool,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "TAB-INCL",
        "direct inclusion/equivalence oracle vs complement+product",
    );
    let ab = Alphabet::new(["a", "b"]).expect("alphabet");

    // (states, pairs, set density, batch of equivalence queries)
    let combos: &[(usize, usize, f64, usize)] = if smoke {
        &[(64, 2, 0.1, 4)]
    } else {
        &[(64, 2, 0.1, 12), (128, 4, 0.08, 10), (256, 6, 0.05, 10)]
    };
    let mut rng = StdRng::seed_from_u64(20_020_319); // arXiv:2002.03191
    println!(
        "\n{:>7} {:>6} {:>8} {:>6} {:>12} {:>12} {:>9}",
        "states", "pairs", "density", "batch", "old med ms", "new med ms", "speedup"
    );
    let mut suites: Vec<Suite> = Vec::new();
    for &(n, k, p, batch) in combos {
        let mut suite = Suite {
            states: n,
            pairs: k,
            density: p,
            batch,
            old_ms: Vec::with_capacity(batch),
            new_ms: Vec::with_capacity(batch),
            verdicts_equal: true,
        };
        for _ in 0..batch {
            // Timed workload: equivalence against the language-preserving
            // quotient. The verdict is *true*, so neither oracle can bail
            // out on the first counterexample: both must prove every
            // disjunct empty, in both directions.
            let (a, _) = random_streett(&mut rng, &ab, n, k, p);
            let b = minimize(&a).quotient;
            let (old_eq, old_ms) = timed(|| a.equivalent_via_complement(&b));
            let (new_eq, new_ms) = timed(|| inclusion::equivalent(&a, &b));
            suite.verdicts_equal &= old_eq == new_eq;
            // Untimed tripwire on an independent (generally inequivalent)
            // pair: verdict identity on the counterexample-bearing shape
            // too, equivalence and both inclusion directions.
            let (c, _) = random_streett(&mut rng, &ab, n, k, p);
            suite.verdicts_equal &=
                inclusion::equivalent(&a, &c) == a.equivalent_via_complement(&c);
            suite.verdicts_equal &=
                inclusion::included(&a, &c) == a.is_subset_of_via_complement(&c);
            suite.verdicts_equal &=
                inclusion::included(&c, &a) == c.is_subset_of_via_complement(&a);
            suite.old_ms.push(old_ms);
            suite.new_ms.push(new_ms);
        }
        let (om, nm) = (median(&suite.old_ms), median(&suite.new_ms));
        println!(
            "{n:>7} {k:>6} {p:>8} {batch:>6} {om:>12.4} {nm:>12.4} {:>8.1}x",
            om / nm.max(1e-9)
        );
        expect(
            "old and new oracles agree on every seeded case",
            suite.verdicts_equal,
        );
        suites.push(suite);
    }

    if let Some(big) = suites.iter().find(|s| s.states == 256) {
        let (om, nm) = (median(&big.old_ms), median(&big.new_ms));
        expect(
            "direct oracle is at least 2x faster (median) at 256 states",
            om >= 2.0 * nm,
        );
    }

    if smoke {
        println!("\nTAB-INCL smoke complete (JSON artifact skipped).");
        return;
    }

    // --- Machine-readable artifact.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"experiment\": \"TAB-INCL\",\n");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"verdicts_identical\": true,");
    let _ = writeln!(
        json,
        "  \"note\": \"equivalence queries on seeded random Streett pairs; old = \
         complement+product with generalized-Rabin DNF emptiness, new = direct \
         product-graph Streett refinement on the accepting-cycle kernel \
         (inclusion module). Medians over the per-suite batch.\","
    );
    json.push_str("  \"seeded_streett\": [\n");
    for (i, s) in suites.iter().enumerate() {
        let sep = if i + 1 == suites.len() { "" } else { "," };
        let (om, nm) = (median(&s.old_ms), median(&s.new_ms));
        let _ = writeln!(
            json,
            "    {{\"states\": {}, \"pairs\": {}, \"density\": {}, \"batch\": {}, \
             \"old_median_ms\": {om:.4}, \"new_median_ms\": {nm:.4}, \
             \"old_total_ms\": {:.3}, \"new_total_ms\": {:.3}, \
             \"median_speedup\": {:.2}}}{sep}",
            s.states,
            s.pairs,
            s.density,
            s.batch,
            s.old_ms.iter().sum::<f64>(),
            s.new_ms.iter().sum::<f64>(),
            om / nm.max(1e-9)
        );
    }
    json.push_str("  ]\n}\n");
    let out = "BENCH_inclusion.json";
    std::fs::write(out, &json).expect("write BENCH_inclusion.json");
    println!("\nwrote {out}");
    println!("\nTAB-INCL complete (direct oracle verdict-identical everywhere).");
}

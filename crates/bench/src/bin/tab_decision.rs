//! TAB-DEC — the §5.1 decision procedures on random deterministic Streett
//! automata: agreement between the paper's structural checks and the exact
//! semantic procedures, plus a timing series over the automaton size.

use hierarchy_bench::{expect, header, timed};
use hierarchy_core::automata::alphabet::Alphabet;
use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::random::rng::SeedableRng;
use hierarchy_core::automata::random::rng::StdRng;
use hierarchy_core::automata::{classify, paper_checks, par, random};
use std::fmt::Write as _;

fn main() {
    header("TAB-DEC", "decision procedures for Streett automata (§5.1)");
    let sigma = Alphabet::new(["a", "b"]).expect("alphabet");
    let mut rng = StdRng::seed_from_u64(4242);

    // --- Class statistics + structural-vs-semantic agreement on small
    //     random automata. The paper's closure checks (B̂ ∩ G = ∅ with
    //     G = ⋂(Rᵢ ∪ Pᵢ)) are sound for SINGLE-pair automata; for k ≥ 2 a
    //     cycle of "bad" states can satisfy the pairs crosswise, so the
    //     check as printed over-approximates — we demonstrate both.
    let mut counts = std::collections::BTreeMap::<&'static str, usize>::new();
    let mut single_pair_sound = true;
    let mut constructions_exact = true;
    let mut multi_pair_counterexample = false;
    let samples = 300;
    // Pre-generate the seeded sample set, then classify the whole suite
    // across one worker per core (verdicts come back in input order,
    // identical to per-automaton classify calls).
    let cases: Vec<_> = (0..samples)
        .map(|i| {
            let k = if i % 2 == 0 { 1 } else { 2 };
            random::random_streett(&mut rng, &sigma, 6, k, 0.3)
        })
        .collect();
    let auts: Vec<_> = cases.iter().map(|(aut, _)| aut.clone()).collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (verdicts, t_suite) = timed(|| par::map_with(workers, &auts, classify::classify));
    println!("classified the {samples}-sample suite in {t_suite:.1} ms across {workers} worker(s)");
    for (i, ((aut, pairs), c)) in cases.iter().zip(&verdicts).enumerate() {
        let k = if i % 2 == 0 { 1 } else { 2 };
        *counts.entry(c.strictest_class_name()).or_default() += 1;
        let st_saf = paper_checks::is_safety_structural(aut, pairs);
        let st_gua = paper_checks::is_guarantee_structural(aut, pairs);
        if k == 1 {
            if st_saf {
                single_pair_sound &= c.is_safety;
            }
            if st_gua {
                single_pair_sound &= c.is_guarantee;
            }
        } else if (st_saf && !c.is_safety) || (st_gua && !c.is_guarantee) {
            multi_pair_counterexample = true;
        }
        if paper_checks::is_recurrence_shaped(pairs) {
            constructions_exact &= c.is_recurrence;
        }
        if paper_checks::is_persistence_shaped(pairs) {
            constructions_exact &= c.is_persistence;
        }
        // The Prop 5.1 constructions are exact whenever they apply.
        if let Some(dba) = paper_checks::recurrence_automaton(aut, pairs) {
            constructions_exact &= dba.equivalent(aut) && c.is_recurrence;
        }
        if let Some(saf) = paper_checks::safety_automaton(aut) {
            constructions_exact &= saf.equivalent(aut);
        }
        if let Some(gua) = paper_checks::guarantee_automaton(aut) {
            constructions_exact &= gua.equivalent(aut);
        }
    }
    println!("\nclass distribution over {samples} random 6-state automata:");
    for (name, n) in &counts {
        println!("  {name:<22} {n}");
    }
    println!();
    expect(
        "single-pair structural checks are sound (agree with semantics)",
        single_pair_sound,
    );
    expect(
        "the multi-pair closure check as printed over-approximates (erratum found)",
        multi_pair_counterexample,
    );
    expect(
        "the Prop 5.1 κ-automaton constructions are exact whenever they apply",
        constructions_exact,
    );

    // --- Timing series: classification cost vs automaton size.
    let mut timing_rows = Vec::new();
    println!(
        "\n{:>7} {:>6} {:>14} {:>14}",
        "states", "pairs", "classify ms", "safety-chk ms"
    );
    for &n in &[8usize, 16, 32, 64, 128, 256] {
        for &k in &[1usize, 2, 4] {
            let (aut, pairs) = random::random_streett(&mut rng, &sigma, n, k, 0.2);
            let (_, t_classify) = timed(|| classify::classify(&aut));
            let (_, t_structural) = timed(|| paper_checks::is_safety_structural(&aut, &pairs));
            println!("{n:>7} {k:>6} {t_classify:>14.3} {t_structural:>14.3}");
            timing_rows.push((n, k, t_classify, t_structural));
        }
    }

    // --- Analysis-context counters: SCC passes when the six class
    //     memberships plus the Rabin index are decided independently
    //     (a fresh context per query, i.e. the pre-context behaviour)
    //     versus through one shared full verdict. `stats_total` counts
    //     the quotient context the queries are routed to as well.
    let mut ctx_rows = Vec::new();
    println!(
        "\n{:>7} {:>6} {:>12} {:>12} {:>10} {:>10}",
        "states", "pairs", "indep pass", "shared pass", "scc hits", "budget"
    );
    for &(n, k) in &[(32usize, 2usize), (64, 2), (128, 4), (256, 4)] {
        let (aut, _) = random::random_streett(&mut rng, &sigma, n, k, 0.2);
        let mut independent = 0;
        for query in [
            |c: &Analysis| c.classification().is_safety,
            |c: &Analysis| c.classification().is_guarantee,
            |c: &Analysis| c.classification().is_recurrence,
            |c: &Analysis| c.classification().is_persistence,
            |c: &Analysis| c.classification().is_simple_reactivity,
            |c: &Analysis| c.classification().reactivity_index >= 1,
            |c: &Analysis| c.rabin_index() >= 1,
        ] {
            let fresh = Analysis::new(aut.clone());
            let _ = query(&fresh);
            independent += fresh.stats_total().scc_passes;
        }
        let shared = Analysis::new(aut.clone());
        let _ = shared.classification();
        let _ = shared.rabin_index();
        let stats = shared.stats_total();
        let budget = 1u64 << aut.acceptance().atom_sets().len();
        println!(
            "{n:>7} {k:>6} {independent:>12} {:>12} {:>10} {budget:>10}",
            stats.scc_passes, stats.scc_hits
        );
        expect(
            "shared full verdict stays within the color-lattice pass budget",
            stats.scc_passes <= budget,
        );
        ctx_rows.push((n, k, independent, stats));
    }

    // --- Machine-readable artifact for downstream tooling.
    let mut json = String::from("{\n  \"experiment\": \"TAB-DEC\",\n");
    let _ = writeln!(json, "  \"samples\": {samples},");
    json.push_str("  \"class_distribution\": {");
    for (i, (name, n)) in counts.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {n}");
    }
    json.push_str("},\n");
    let _ = writeln!(
        json,
        "  \"single_pair_structural_sound\": {single_pair_sound},"
    );
    let _ = writeln!(
        json,
        "  \"multi_pair_counterexample_found\": {multi_pair_counterexample},"
    );
    let _ = writeln!(json, "  \"constructions_exact\": {constructions_exact},");
    json.push_str("  \"timing_ms\": [\n");
    for (i, (n, k, tc, ts)) in timing_rows.iter().enumerate() {
        let sep = if i + 1 == timing_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"states\": {n}, \"pairs\": {k}, \"classify\": {tc:.3}, \
             \"structural_safety\": {ts:.3}}}{sep}"
        );
    }
    json.push_str("  ],\n  \"analysis_context\": [\n");
    for (i, (n, k, independent, stats)) in ctx_rows.iter().enumerate() {
        let sep = if i + 1 == ctx_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"states\": {n}, \"pairs\": {k}, \
             \"independent_scc_passes\": {independent}, \
             \"shared_scc_passes\": {}, \"scc_hits\": {}}}{sep}",
            stats.scc_passes, stats.scc_hits
        );
    }
    json.push_str("  ]\n}\n");
    let out = "BENCH_decision.json";
    std::fs::write(out, &json).expect("write BENCH_decision.json");
    println!("\nwrote {out}");
    println!("\nTAB-DEC reproduced (structural and semantic procedures agree; scaling above).");
}

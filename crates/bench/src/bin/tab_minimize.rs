//! TAB-MIN — the quotient-first pipeline: partition-refinement
//! minimization (`hierarchy_automata::minimize`) under every hot path of
//! the classifier, measured against the raw walk.
//!
//! Two workloads, both verdict-asserted raw-vs-quotient:
//!
//! * **Paper formulas** — the §2/§4 modalities and response/fairness
//!   formulas, compiled through the *raw* temporal tester
//!   (`compile_raw_over`). The tester tracks every past subformula, so
//!   distinct states frequently carry the same residual language; this
//!   is where the quotient earns its keep on real paper inputs.
//! * **Seeded random Streett suites** — the usual `random_streett`
//!   batches at 64/128/256 states.
//!
//! A finding this experiment documents: the quotient saves states, not
//! SCC passes. The minimizer seeds its partition with acceptance-atom
//! signatures, so every loop of the quotient is the image of a raw loop
//! meeting the same atoms, and the classification asks both for
//! restrictions of the same form `reachable − (union of atoms)`; the
//! pass counts tie on every row of the current tables, each quotient
//! pass sweeping fewer states. The honest per-pass saving is therefore
//! the `scc_state_visits` counter (states swept per pass, summed), which
//! this table reports next to the raw pass counts.
//!
//! `--smoke` runs the full formula set and a shrunken random suite, and
//! skips the JSON artifact so the committed `BENCH_minimize.json` always
//! describes the full run.

use hierarchy_bench::{expect, header, timed};
use hierarchy_core::automata::analysis::{Analysis, AnalysisStats};
use hierarchy_core::automata::classify::Classification;
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::automata::prelude::*;
use hierarchy_core::automata::random::random_streett;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use hierarchy_core::logic::to_automaton::compile_raw_over;
use hierarchy_core::logic::Formula;
use std::fmt::Write as _;

/// One raw-vs-quotient measurement of `classification()` end to end
/// (context construction — including the minimization itself on the
/// quotient side — plus the classification).
struct Row {
    states_before: usize,
    states_after: usize,
    raw: AnalysisStats,
    quot: AnalysisStats,
    raw_ms: f64,
    quot_ms: f64,
    verdicts_equal: bool,
}

fn measure(aut: &OmegaAutomaton) -> Row {
    let ((raw_ctx, raw_verdict), raw_ms) = timed(|| {
        let ctx = Analysis::new_raw(aut.clone());
        let v: Classification = ctx.classification().clone();
        (ctx, v)
    });
    let ((quot_ctx, quot_verdict), quot_ms) = timed(|| {
        let ctx = Analysis::new(aut.clone());
        let v: Classification = ctx.classification().clone();
        (ctx, v)
    });
    Row {
        states_before: aut.num_states(),
        states_after: quot_ctx.minimization().quotient.num_states(),
        raw: raw_ctx.stats_total(),
        quot: quot_ctx.stats_total(),
        raw_ms,
        quot_ms,
        verdicts_equal: raw_verdict == quot_verdict,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "TAB-MIN",
        "partition-refinement quotient under the classification pipeline",
    );
    let ab = Alphabet::new(["a", "b"]).expect("alphabet");
    let abc = Alphabet::new(["a", "b", "c"]).expect("alphabet");

    // --- Paper formulas through the raw tester.
    let formulas: [(&str, &Alphabet); 11] = [
        ("G a", &ab),
        ("F b", &ab),
        ("G F b", &ab),
        ("F G a", &ab),
        ("G (b -> Y a)", &ab),
        ("F (b & Y H a)", &ab),
        ("G (a -> F b)", &ab),
        ("a -> G b", &ab),
        ("a W b", &ab),
        ("G F a -> G F b", &abc),
        ("G (c -> (Y a | Y b))", &abc),
    ];
    println!(
        "\n{:<24} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8} {:>9} {:>9}",
        "formula (raw tester)",
        "st_raw",
        "st_quo",
        "pass_r",
        "pass_q",
        "sweep_r",
        "sweep_q",
        "raw ms",
        "quo ms"
    );
    let mut paper_rows: Vec<(&str, Row)> = Vec::new();
    let mut all_verdicts_equal = true;
    let mut all_states_strict = true;
    let mut all_sweeps_strict = true;
    let mut passes_never_worse = true;
    for (src, sigma) in formulas {
        let f = Formula::parse(sigma, src).expect("paper formula parses");
        let tester = compile_raw_over(sigma, &f).expect("paper formula compiles");
        let row = measure(&tester);
        println!(
            "{src:<24} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8} {:>9.4} {:>9.4}",
            row.states_before,
            row.states_after,
            row.raw.scc_passes,
            row.quot.scc_passes,
            row.raw.scc_state_visits,
            row.quot.scc_state_visits,
            row.raw_ms,
            row.quot_ms
        );
        all_verdicts_equal &= row.verdicts_equal;
        all_states_strict &= row.states_after < row.states_before;
        all_sweeps_strict &= row.quot.scc_state_visits < row.raw.scc_state_visits;
        passes_never_worse &= row.quot.scc_passes <= row.raw.scc_passes;
        paper_rows.push((src, row));
    }
    expect(
        "paper-formula verdicts are identical raw vs quotient-first",
        all_verdicts_equal,
    );
    expect(
        "the quotient strictly reduces states on every paper formula",
        all_states_strict,
    );
    expect(
        "the quotient strictly reduces the states swept by SCC passes on every paper formula",
        all_sweeps_strict,
    );
    expect(
        "quotient-first runs no more SCC passes than the raw walk",
        passes_never_worse,
    );

    // --- Seeded random Streett suites.
    let combos: &[(usize, usize, f64, usize)] = if smoke {
        &[(64, 2, 0.1, 3)]
    } else {
        &[(64, 2, 0.1, 8), (128, 3, 0.1, 6), (256, 4, 0.05, 6)]
    };
    let mut rng = StdRng::seed_from_u64(1_618_033);
    println!(
        "\n{:>7} {:>6} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "states",
        "pairs",
        "density",
        "batch",
        "st_raw",
        "st_quo",
        "sweep_r",
        "sweep_q",
        "raw ms",
        "quo ms"
    );
    let mut suite_rows = Vec::new();
    for &(n, k, p, batch) in combos {
        let mut agg = Row {
            states_before: 0,
            states_after: 0,
            raw: AnalysisStats::default(),
            quot: AnalysisStats::default(),
            raw_ms: 0.0,
            quot_ms: 0.0,
            verdicts_equal: true,
        };
        for _ in 0..batch {
            let (aut, _) = random_streett(&mut rng, &ab, n, k, p);
            let row = measure(&aut);
            agg.states_before += row.states_before;
            agg.states_after += row.states_after;
            agg.raw.scc_passes += row.raw.scc_passes;
            agg.raw.scc_state_visits += row.raw.scc_state_visits;
            agg.quot.scc_passes += row.quot.scc_passes;
            agg.quot.scc_state_visits += row.quot.scc_state_visits;
            agg.raw_ms += row.raw_ms;
            agg.quot_ms += row.quot_ms;
            agg.verdicts_equal &= row.verdicts_equal;
        }
        println!(
            "{n:>7} {k:>6} {p:>8} {batch:>6} {:>9} {:>9} {:>9} {:>9} {:>10.3} {:>10.3}",
            agg.states_before,
            agg.states_after,
            agg.raw.scc_state_visits,
            agg.quot.scc_state_visits,
            agg.raw_ms,
            agg.quot_ms
        );
        expect(
            "seeded-suite verdicts are identical raw vs quotient-first",
            agg.verdicts_equal,
        );
        expect(
            "the quotient strictly reduces total suite states",
            agg.states_after < agg.states_before,
        );
        // On sparse random Streett automata most of the state reduction
        // is unreachable or dead states, which the raw classification
        // never sweeps either — so sweeps can tie exactly. Non-increase
        // is the honest invariant here; the strict claim belongs to the
        // paper formulas above, where the tester's redundancy is live.
        expect(
            "the quotient never increases total states swept by SCC passes",
            agg.quot.scc_state_visits <= agg.raw.scc_state_visits,
        );
        suite_rows.push((n, k, p, batch, agg));
    }

    if smoke {
        println!("\nTAB-MIN smoke complete (JSON artifact skipped).");
        return;
    }

    // --- Machine-readable artifact.
    let mut json = String::from("{\n  \"experiment\": \"TAB-MIN\",\n");
    let _ = writeln!(json, "  \"verdicts_identical\": true,");
    let _ = writeln!(
        json,
        "  \"note\": \"The signature-seeded quotient keeps every loop's atom \
         signature, so it saves SCC states, not SCC passes: each pass sweeps \
         fewer states, reported as scc_pass_state_visits.\","
    );
    json.push_str("  \"paper_formulas\": [\n");
    for (i, (src, r)) in paper_rows.iter().enumerate() {
        let sep = if i + 1 == paper_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"formula\": \"{src}\", \"states_before\": {}, \"states_after\": {}, \
             \"scc_passes_raw\": {}, \"scc_passes_quotient\": {}, \
             \"scc_pass_state_visits_raw\": {}, \"scc_pass_state_visits_quotient\": {}, \
             \"classify_raw_ms\": {:.4}, \"classify_quotient_ms\": {:.4}}}{sep}",
            r.states_before,
            r.states_after,
            r.raw.scc_passes,
            r.quot.scc_passes,
            r.raw.scc_state_visits,
            r.quot.scc_state_visits,
            r.raw_ms,
            r.quot_ms
        );
    }
    json.push_str("  ],\n  \"seeded_streett\": [\n");
    for (i, (n, k, p, batch, agg)) in suite_rows.iter().enumerate() {
        let sep = if i + 1 == suite_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"states\": {n}, \"pairs\": {k}, \"density\": {p}, \"batch\": {batch}, \
             \"states_before_total\": {}, \"states_after_total\": {}, \
             \"scc_passes_raw\": {}, \"scc_passes_quotient\": {}, \
             \"scc_pass_state_visits_raw\": {}, \"scc_pass_state_visits_quotient\": {}, \
             \"classify_raw_ms\": {:.3}, \"classify_quotient_ms\": {:.3}}}{sep}",
            agg.states_before,
            agg.states_after,
            agg.raw.scc_passes,
            agg.quot.scc_passes,
            agg.raw.scc_state_visits,
            agg.quot.scc_state_visits,
            agg.raw_ms,
            agg.quot_ms
        );
    }
    json.push_str("  ]\n}\n");
    let out = "BENCH_minimize.json";
    std::fs::write(out, &json).expect("write BENCH_minimize.json");
    println!("\nwrote {out}");
    println!("\nTAB-MIN complete (quotient-first pipeline verdict-identical everywhere).");
}

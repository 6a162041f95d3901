//! Microbenchmarks of the classification decision procedures
//! (experiments TAB-DEC, TAB-OBLK, TAB-REACTK: timing series).
//!
//! Run with `cargo bench -p hierarchy-bench --bench classification`.

use hierarchy_bench::microbench;
use hierarchy_core::automata::alphabet::Alphabet;
use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use hierarchy_core::automata::{classify, paper_checks, random};
use hierarchy_core::lang::witnesses;
use std::hint::black_box;

fn classify_witnesses() {
    let mut group = microbench::group("classify_witnesses");
    group.sample_size(20);
    for (name, aut) in [
        ("safety", witnesses::safety()),
        ("recurrence", witnesses::recurrence()),
        ("obligation_simple", witnesses::obligation_simple()),
        ("reactivity_2", witnesses::reactivity_witness(2)),
    ] {
        group.bench_function(name, || classify::classify(black_box(&aut)));
    }
    group.finish();
}

fn decision_procedures_scaling() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = microbench::group("decision_procedures");
    group.sample_size(10);
    for &n in &[8usize, 32, 128] {
        let (aut, pairs) = random::random_streett(&mut rng, &sigma, n, 2, 0.2);
        group.bench_function(format!("classify/{n}"), || {
            classify::classify(black_box(&aut))
        });
        group.bench_function(format!("structural_safety/{n}"), || {
            paper_checks::is_safety_structural(black_box(&aut), black_box(&pairs))
        });
        group.bench_function(format!("is_safety_semantic/{n}"), || {
            Analysis::new(black_box(&aut).clone()).is_safety()
        });
    }
    group.finish();
}

fn hierarchy_indices() {
    let mut group = microbench::group("hierarchy_indices");
    group.sample_size(10);
    for k in [2usize, 4, 6] {
        let obl = witnesses::obligation_witness(k);
        group.bench_function(format!("obligation_index/{k}"), || {
            classify::classify(black_box(&obl)).obligation_index
        });
    }
    for n in [1usize, 2, 3] {
        let re = witnesses::reactivity_witness(n);
        group.bench_function(format!("reactivity_index/{n}"), || {
            classify::classify(black_box(&re)).reactivity_index
        });
    }
    group.finish();
}

fn main() {
    classify_witnesses();
    decision_procedures_scaling();
    hierarchy_indices();
}

//! Microbenchmarks of the checking side: model checking the example
//! programs (TAB-FAIR), the safety–liveness decomposition (TAB-SL), and
//! the counter-freedom test (TAB-CF).
//!
//! Run with `cargo bench -p hierarchy-bench --bench checking`.

use hierarchy_bench::microbench;
use hierarchy_core::automata::counterfree;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use hierarchy_core::fts::absint;
use hierarchy_core::fts::checker::verify;
use hierarchy_core::fts::system::Fairness;
use hierarchy_core::prelude::*;
use hierarchy_core::topology::decomposition;
use std::hint::black_box;

fn model_check_peterson() {
    let sigma = absint::observation_alphabet();
    let ts = absint::peterson_abs().to_builder(&sigma).build().unwrap();
    let specs = [
        ("mutex", "G !(c1 & c2)"),
        ("accessibility", "G (t1 -> F c1)"),
        ("precedence", "G (c1 -> O t1)"),
    ];
    let mut group = microbench::group("model_check_peterson");
    group.sample_size(20);
    for (name, src) in specs {
        let prop = Property::parse(&sigma, src).unwrap();
        group.bench_function(name, || {
            verify(black_box(&ts), black_box(prop.automaton())).expect("check")
        });
    }
    group.finish();
}

fn model_check_mux_sem() {
    let mut group = microbench::group("model_check_mux_sem");
    group.sample_size(20);
    let sigma = absint::observation_alphabet();
    for (name, fairness) in [("strong", Fairness::Strong), ("weak", Fairness::Weak)] {
        let ts = absint::mux_sem_abs(fairness)
            .to_builder(&sigma)
            .build()
            .unwrap();
        let prop = Property::parse(&sigma, "G (t2 -> F c2)").unwrap();
        group.bench_function(name, || {
            verify(black_box(&ts), black_box(prop.automaton())).expect("check")
        });
    }
    group.finish();
}

fn decomposition_bench() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let mut group = microbench::group("safety_liveness_decomposition");
    group.sample_size(10);
    for &n in &[8usize, 32, 128] {
        let (aut, _) =
            hierarchy_core::automata::random::random_streett(&mut rng, &sigma, n, 2, 0.2);
        group.bench_function(format!("{n}"), || {
            decomposition::decompose(&Analysis::new(black_box(&aut).clone()))
        });
    }
    group.finish();
}

fn counterfree_bench() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let a = sigma.symbol("a").unwrap();
    let mut group = microbench::group("counter_freedom");
    group.sample_size(10);
    for &n in &[4usize, 6, 8] {
        let counter = OmegaAutomaton::build(
            &sigma,
            n,
            0,
            move |q, s| {
                if s == a {
                    ((q as usize + 1) % n) as u32
                } else {
                    q
                }
            },
            Acceptance::inf([0]),
        );
        group.bench_function(format!("mod_counter/{n}"), || {
            counterfree::check_omega(black_box(&counter), counterfree::DEFAULT_MONOID_CAP)
        });
    }
    let cf = hierarchy_core::lang::witnesses::obligation_witness(3);
    group.bench_function("counter_free_witness", || {
        counterfree::check_omega(black_box(&cf), counterfree::DEFAULT_MONOID_CAP)
    });
    group.finish();
}

fn main() {
    model_check_peterson();
    model_check_mux_sem();
    decomposition_bench();
    counterfree_bench();
}

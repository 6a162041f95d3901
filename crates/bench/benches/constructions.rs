//! Microbenchmarks of the construction pipeline: the A/E/R/P
//! operators, `minex` against the naive product (TAB-DUAL's timing facet),
//! past-tester construction and formula compilation (TAB-TL; over `{a,b}`
//! and over the `2^{p,q,r}` of audited suites), and the Prop 5.1
//! κ-automaton constructions.
//!
//! Run with `cargo bench -p hierarchy-bench --bench constructions`.

use hierarchy_bench::microbench;
use hierarchy_core::automata::alphabet::Alphabet;
use hierarchy_core::automata::paper_checks;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use hierarchy_core::lang::{operators, FinitaryProperty};
use hierarchy_core::logic::tester::Tester;
use hierarchy_core::logic::to_automaton::compile_over;
use hierarchy_core::logic::Formula;
use std::hint::black_box;

fn operators_bench() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let phi = FinitaryProperty::parse(&sigma, "(a*b)(a*b)*a*").unwrap();
    let mut group = microbench::group("operators");
    group.bench_function("A", || operators::a(black_box(&phi)));
    group.bench_function("E", || operators::e(black_box(&phi)));
    group.bench_function("R", || operators::r(black_box(&phi)));
    group.bench_function("P", || operators::p(black_box(&phi)));
    group.finish();
}

fn minex_vs_product() {
    // R(Φ₁) ∩ R(Φ₂) two ways: the automaton product vs R(minex(Φ₁,Φ₂)).
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let f1 = FinitaryProperty::parse(&sigma, "(aa)(aa)*").unwrap();
    let f2 = FinitaryProperty::parse(&sigma, ".*b(ab)*").unwrap();
    let mut group = microbench::group("recurrence_intersection");
    group.bench_function("via_product", || {
        operators::r(black_box(&f1)).intersection(&operators::r(black_box(&f2)))
    });
    group.bench_function("via_minex", || {
        operators::r(&black_box(&f1).minex(black_box(&f2)))
    });
    group.finish();
}

/// The letter alphabet `{a,b}` and the valuation alphabet `2^{p,q,r}`
/// that `spec-lint audit` suites are written over.
fn alphabets() -> [Alphabet; 2] {
    [
        Alphabet::new(["a", "b"]).unwrap(),
        Alphabet::of_propositions(["p", "q", "r"]).unwrap(),
    ]
}

fn tester_construction() {
    let [letters, props] = alphabets();
    let cases = [
        (&letters, "b & Z H a"),
        (&letters, "a S (b & Y a)"),
        (&letters, "O (a & Y (b & Y a))"),
        (&letters, "(!a B b) & O a"),
        (&props, "q S (p & Y r)"),
        (&props, "H (p -> O q) & Z !r"),
        (&props, "(p B (q & Y Y r)) | O (r & Z p)"),
    ];
    let mut group = microbench::group("past_tester");
    for (sigma, src) in cases {
        let f = Formula::parse(sigma, src).unwrap();
        group.bench_function(src, || {
            Tester::new(black_box(sigma), std::slice::from_ref(black_box(&f)))
        });
    }
    group.finish();
}

fn formula_compilation() {
    let [letters, props] = alphabets();
    let cases = [
        (&letters, "G (a -> F b)"),
        (&letters, "G F a -> G F b"),
        (&letters, "a U b"),
        (&letters, "G (a -> F G b)"),
        (&props, "G (p -> F q)"),
        (&props, "(G !(p & q)) | (F G !r)"),
        (&props, "G (q -> (p S r))"),
        (&props, "G F p -> G F (q & Y r)"),
    ];
    let mut group = microbench::group("compile_formula");
    for (sigma, src) in cases {
        let f = Formula::parse(sigma, src).unwrap();
        assert!(compile_over(sigma, &f).is_ok(), "{src} compiles");
        group.bench_function(src, || compile_over(black_box(sigma), black_box(&f)));
    }
    group.finish();
}

fn prop51_constructions() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let (aut, pairs) =
        hierarchy_core::automata::random::random_streett(&mut rng, &sigma, 24, 2, 0.25);
    let mut group = microbench::group("prop51");
    group.sample_size(20);
    group.bench_function("safety_automaton", || {
        paper_checks::safety_automaton(black_box(&aut))
    });
    group.bench_function("recurrence_automaton", || {
        paper_checks::recurrence_automaton(black_box(&aut), black_box(&pairs))
    });
    group.finish();
}

fn main() {
    operators_bench();
    minex_vs_product();
    tester_construction();
    formula_compilation();
    prop51_constructions();
}

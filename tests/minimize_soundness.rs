//! Differential soundness suite for the quotient-first pipeline.
//!
//! `hierarchy_automata::minimize` computes the acceptance-aware greatest
//! bisimulation quotient, and `Analysis` routes classification, Rabin
//! index, universality, and inclusion queries through that quotient by
//! default. Everything the hierarchy reports is a language property, so
//! the quotient must be *observationally invisible*: this suite checks
//! language preservation against a brute-force lasso-enumeration oracle
//! on small alphabets, verdict identity between quotient-first and raw
//! analysis contexts on hundreds of seeded automata (classification,
//! Rabin index, universality, inclusion, and the full lint report), and
//! structural idempotence of the minimizer itself, on ω-automata and on
//! the DFAs it minimizes as `Inf(F)` views.

use temporal_properties::automata::acceptance::Acceptance;
use temporal_properties::automata::alphabet::{Alphabet, Symbol};
use temporal_properties::automata::analysis::Analysis;
use temporal_properties::automata::dfa::Dfa;
use temporal_properties::automata::lasso::Lasso;
use temporal_properties::automata::minimize::minimize;
use temporal_properties::automata::omega::OmegaAutomaton;
use temporal_properties::automata::random::rng::{SeedableRng, StdRng};
use temporal_properties::automata::random::{random_dfa, random_streett};
use temporal_properties::lint::lint_automaton_ctx;

/// Every ultimately-periodic word `u·v^ω` with `|u| <= max_spoke` and
/// `1 <= |v| <= max_cycle` over the alphabet.
fn all_lassos(sigma: &Alphabet, max_spoke: usize, max_cycle: usize) -> Vec<Lasso> {
    let k = sigma.len();
    let words = |len: usize| -> Vec<Vec<Symbol>> {
        let mut out = vec![Vec::new()];
        for _ in 0..len {
            out = out
                .into_iter()
                .flat_map(|w| {
                    (0..k).map(move |s| {
                        let mut w = w.clone();
                        w.push(Symbol(s as u8));
                        w
                    })
                })
                .collect();
        }
        out
    };
    let mut lassos = Vec::new();
    for spoke_len in 0..=max_spoke {
        for spoke in words(spoke_len) {
            for cycle_len in 1..=max_cycle {
                for cycle in words(cycle_len) {
                    lassos.push(Lasso::new(spoke.clone(), cycle));
                }
            }
        }
    }
    lassos
}

/// A small round-robin of generator parameters so the sweep sees dense
/// and sparse acceptance conditions and different pair counts.
fn params(i: u64) -> (usize, f64) {
    let k = [1usize, 2, 3][(i % 3) as usize];
    let p = [0.2f64, 0.5, 0.8][((i / 3) % 3) as usize];
    (k, p)
}

#[test]
fn quotient_preserves_language_on_lasso_enumeration() {
    for (sigma, states, seeds, spoke, cycle) in [
        (
            Alphabet::new(["a", "b"]).unwrap(),
            8usize,
            60u64,
            3usize,
            3usize,
        ),
        (Alphabet::new(["a", "b", "c"]).unwrap(), 6, 30, 2, 2),
    ] {
        let lassos = all_lassos(&sigma, spoke, cycle);
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let (k, p) = params(seed);
            let (aut, _) = random_streett(&mut rng, &sigma, states, k, p);
            let min = minimize(&aut);
            assert!(
                min.quotient.num_states() <= aut.num_states(),
                "seed {seed}: the quotient grew"
            );
            for w in &lassos {
                assert_eq!(
                    aut.accepts(w),
                    min.quotient.accepts(w),
                    "seed {seed} over {}-letter alphabet: quotient disagrees on {w:?}",
                    sigma.len()
                );
            }
        }
    }
}

#[test]
fn classification_and_rabin_index_are_identical_quotient_vs_raw() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    for seed in 0..220u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (k, p) = params(seed);
        let n = [6usize, 10, 14][((seed / 9) % 3) as usize];
        let (aut, _) = random_streett(&mut rng, &sigma, n, k, p);
        let quot = Analysis::new(aut.clone());
        let raw = Analysis::new_raw(aut);
        assert_eq!(
            quot.classification(),
            raw.classification(),
            "seed {seed}: quotient-first classification diverged"
        );
        assert_eq!(
            quot.rabin_index(),
            raw.rabin_index(),
            "seed {seed}: quotient-first Rabin index diverged"
        );
        let v = quot.classification();
        assert_eq!(
            v.is_simple_reactivity,
            v.reactivity_index == 1,
            "seed {seed}"
        );
        assert_eq!(
            quot.rabin_index(),
            Analysis::new(raw.automaton().complement()).reactivity_index(),
            "seed {seed}: Rabin index vs the complement's reactivity index"
        );
    }
}

#[test]
fn lint_reports_are_identical_quotient_vs_raw() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (k, p) = params(seed);
        let (aut, _) = random_streett(&mut rng, &sigma, 10, k, p);
        let quot = lint_automaton_ctx(&Analysis::new(aut.clone()));
        let raw = lint_automaton_ctx(&Analysis::new_raw(aut));
        assert_eq!(
            quot, raw,
            "seed {seed}: the lint report depends on the quotient preprocessing"
        );
    }
}

#[test]
fn universality_and_inclusion_agree_quotient_vs_raw() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let mut prev: Option<OmegaAutomaton> = None;
    for seed in 0..80u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (k, p) = params(seed);
        let (aut, _) = random_streett(&mut rng, &sigma, 8, k, p);
        let quot = Analysis::new(aut.clone());
        let raw = Analysis::new_raw(aut.clone());
        assert_eq!(
            quot.is_universal(),
            raw.is_universal(),
            "seed {seed}: universality diverged"
        );
        if let Some(other) = prev {
            assert_eq!(
                quot.is_subset_of(&other),
                raw.is_subset_of(&other),
                "seed {seed}: inclusion against the previous automaton diverged"
            );
            assert_eq!(
                quot.equivalent(&other),
                raw.equivalent(&other),
                "seed {seed}: equivalence against the previous automaton diverged"
            );
        }
        prev = Some(aut);
    }
}

#[test]
fn minimization_is_idempotent_and_matches_the_moore_oracle() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (k, p) = params(seed);
        let (aut, _) = random_streett(&mut rng, &sigma, 12, k, p);
        let min = minimize(&aut);
        // Idempotence: re-minimizing the quotient is the identity, not
        // just up to isomorphism — the canonical BFS renumbering makes
        // the quotient a fixed point structurally.
        let twice = minimize(&min.quotient);
        assert!(
            !twice.reduced(),
            "seed {seed}: the quotient was reducible again"
        );
        assert_eq!(
            twice.quotient, min.quotient,
            "seed {seed}: minimize∘minimize differs from minimize"
        );
        // Size agreement with the naive Moore oracle kept in
        // `OmegaAutomaton::reduce`.
        assert_eq!(
            min.quotient.num_states(),
            aut.reduce().num_states(),
            "seed {seed}: Hopcroft and Moore quotients differ in size"
        );
    }
    // DFAs minimize through the same refinement, read as `Inf(F)`
    // ω-automata, so the Moore oracle checks them on that view too: its
    // seed partition is accepting versus non-accepting, and its class
    // count is the Myhill–Nerode one.
    let mut reduced = 0;
    for sigma in [sigma.clone(), Alphabet::new(["a", "b", "c"]).unwrap()] {
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 1 + (seed % 16) as usize;
            let p = [0.2f64, 0.5, 0.8][(seed % 3) as usize];
            let dfa = random_dfa(&mut rng, &sigma, n, p);
            let min = dfa.minimize();
            reduced += usize::from(min.num_states() < n);
            let view = OmegaAutomaton::build(
                dfa.alphabet(),
                dfa.num_states(),
                dfa.initial(),
                |q, s| dfa.step(q, s),
                Acceptance::Inf(dfa.accepting().clone()),
            );
            assert_eq!(
                min.num_states(),
                view.reduce().num_states(),
                "DFA seed {seed}: Hopcroft and Moore quotients differ in size"
            );
            assert!(
                min.equivalent(&dfa),
                "DFA seed {seed}: minimization changed the language"
            );
            let twice = min.minimize();
            let table = |d: &Dfa| -> Vec<u32> {
                (0..d.num_states() as u32)
                    .flat_map(|q| d.alphabet().symbols().map(move |s| d.step(q, s)))
                    .collect()
            };
            assert_eq!(
                (twice.initial(), twice.accepting(), table(&twice)),
                (min.initial(), min.accepting(), table(&min)),
                "DFA seed {seed}: minimize∘minimize differs from minimize"
            );
        }
    }
    assert!(reduced > 300, "only {reduced} DFAs exercised a merge");
}

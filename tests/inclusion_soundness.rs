//! Differential soundness suite for the direct inclusion/equivalence
//! oracle (`automata::inclusion`, ISSUE 8).
//!
//! 200+ seeded deterministic Streett, Rabin and parity automata are
//! pushed through both oracles — the direct Angluin–Fisman product-graph
//! algorithm and the classical complement+product+emptiness
//! construction — and every verdict must be identical. Counterexample
//! lassos are replayed through [`Lasso`] acceptance on both automata
//! (they must be accepted by exactly the claimed side), parity views are
//! checked against the boolean conditions they summarize, the
//! `Analysis`-level wiring is exercised, and the structural invariants
//! guarded by the constructor audit (ISSUE 8 satellite: `map_sets` /
//! `with_acceptance` atom-range hygiene) are swept across every
//! automaton-producing construction.

use temporal_properties::automata::inclusion;
use temporal_properties::automata::omega::OmegaAutomaton;
use temporal_properties::automata::random::rng::{Rng, SeedableRng, StdRng};
use temporal_properties::automata::random::{
    random_lasso, random_parity, random_rabin, random_streett,
};
use temporal_properties::prelude::*;

fn sigma() -> Alphabet {
    Alphabet::new(["a", "b"]).unwrap()
}

/// Both oracles must return the same inclusion verdict in both
/// directions and the same equivalence verdict; on failure the witness
/// lasso must be a real separator.
fn check_pair(case: &str, a: &OmegaAutomaton, b: &OmegaAutomaton) {
    let fwd = inclusion::included(a, b);
    let bwd = inclusion::included(b, a);
    assert_eq!(
        fwd,
        a.is_subset_of_via_complement(b),
        "{case}: forward inclusion verdict differs from the complement oracle"
    );
    assert_eq!(
        bwd,
        b.is_subset_of_via_complement(a),
        "{case}: backward inclusion verdict differs from the complement oracle"
    );
    let eq = inclusion::equivalent(a, b);
    assert_eq!(
        eq,
        a.equivalent_via_complement(b),
        "{case}: equivalence verdict differs from the complement oracle"
    );
    assert_eq!(eq, fwd && bwd, "{case}: equivalence ≠ mutual inclusion");

    if !fwd {
        let w = inclusion::inclusion_counterexample(a, b)
            .unwrap_or_else(|| panic!("{case}: non-inclusion must yield a counterexample"));
        assert!(a.accepts(&w), "{case}: counterexample not accepted by A");
        assert!(!b.accepts(&w), "{case}: counterexample accepted by B");
    } else {
        assert!(
            inclusion::inclusion_counterexample(a, b).is_none(),
            "{case}: inclusion holds but a counterexample was produced"
        );
    }
    if !eq {
        let w = inclusion::distinguishing_lasso(a, b)
            .unwrap_or_else(|| panic!("{case}: inequivalence must yield a distinguishing lasso"));
        assert_ne!(
            a.accepts(&w),
            b.accepts(&w),
            "{case}: distinguishing lasso accepted by both or neither"
        );
    } else {
        assert!(
            inclusion::distinguishing_lasso(a, b).is_none(),
            "{case}: equivalent automata yielded a distinguishing lasso"
        );
    }
}

/// 90 seeded Streett-vs-Streett cases (the shape the old oracle paid
/// exponentially for: `k` conjoined pairs on the left).
#[test]
fn streett_verdicts_match_the_complement_oracle() {
    let mut rng = StdRng::seed_from_u64(0x51EE7);
    let alphabet = sigma();
    for case in 0..90 {
        let n = rng.gen_range(2..=20usize);
        let k = rng.gen_range(1..=4usize);
        let (a, _) = random_streett(&mut rng, &alphabet, n, k, 0.25);
        let m = rng.gen_range(2..=20usize);
        let kb = rng.gen_range(1..=4usize);
        let (b, _) = random_streett(&mut rng, &alphabet, m, kb, 0.25);
        check_pair(&format!("streett case {case} (n={n}, k={k})"), &a, &b);
    }
}

/// 60 seeded Rabin-vs-Rabin and Rabin-vs-Streett cases (disjunctive
/// conditions on both sides of the product).
#[test]
fn rabin_verdicts_match_the_complement_oracle() {
    let mut rng = StdRng::seed_from_u64(0xAB1);
    let alphabet = sigma();
    for case in 0..60 {
        let n = rng.gen_range(2..=18usize);
        let ka = rng.gen_range(1..=3usize);
        let a = random_rabin(&mut rng, &alphabet, n, ka, 0.3);
        let m = rng.gen_range(2..=18usize);
        let kb = rng.gen_range(1..=3usize);
        let b = if case % 2 == 0 {
            random_rabin(&mut rng, &alphabet, m, kb, 0.3)
        } else {
            random_streett(&mut rng, &alphabet, m, kb, 0.3).0
        };
        check_pair(&format!("rabin case {case} (n={n})"), &a, &b);
    }
}

/// 60 seeded parity-vs-parity cases — both sides admit a
/// [`ParityView`], so these exercise the Angluin–Fisman fast path
/// end-to-end (priority-threshold product restrictions).
#[test]
fn parity_verdicts_match_the_complement_oracle() {
    let mut rng = StdRng::seed_from_u64(0x9A817);
    let alphabet = sigma();
    for case in 0..60 {
        let n = rng.gen_range(2..=20usize);
        let d = rng.gen_range(1..=4usize) as u32;
        let a = random_parity(&mut rng, &alphabet, n, d);
        let m = rng.gen_range(2..=20usize);
        let db = rng.gen_range(1..=4usize) as u32;
        let b = random_parity(&mut rng, &alphabet, m, db);
        assert!(
            ParityView::try_of(a.acceptance(), a.num_states()).is_some()
                && ParityView::try_of(b.acceptance(), b.num_states()).is_some(),
            "parity case {case}: generated automata must admit parity views"
        );
        check_pair(&format!("parity case {case} (n={n}, d={d})"), &a, &b);
    }
}

/// The parity view is a faithful summary: on random infinity sets (from
/// random lasso runs) it must agree with the boolean condition it was
/// derived from.
#[test]
fn parity_views_summarize_their_boolean_conditions() {
    let mut rng = StdRng::seed_from_u64(0x9A81);
    let alphabet = sigma();
    for case in 0..40 {
        let n = rng.gen_range(2..=16usize);
        let d = rng.gen_range(1..=5usize) as u32;
        let aut = random_parity(&mut rng, &alphabet, n, d);
        let view = ParityView::try_of(aut.acceptance(), n).expect("parity automaton");
        for w in 0..10 {
            let lasso = random_lasso(&mut rng, &alphabet, 4, 5);
            let inf = aut.infinity_set(&lasso);
            assert_eq!(
                view.accepts_infinity_set(&inf),
                aut.acceptance().accepts_infinity_set(&inf),
                "case {case}.{w}: parity view disagrees on {inf:?}"
            );
        }
    }
}

/// The `Analysis`-level oracle (quotient-first + memo) must agree with
/// the raw complement oracle on the raw operands, whether the operand
/// comes as an automaton or as its context. Both forms key one memo
/// entry, so whichever comes second is a hit.
#[test]
fn analysis_oracle_agrees_with_the_complement_oracle() {
    let mut rng = StdRng::seed_from_u64(0xA11A);
    let alphabet = sigma();
    let mut reduced = 0;
    for case in 0..30 {
        let n = rng.gen_range(2..=16usize);
        let (a, _) = random_streett(&mut rng, &alphabet, n, 2, 0.3);
        let m = rng.gen_range(2..=16usize);
        let (b, _) = random_streett(&mut rng, &alphabet, m, 2, 0.3);
        reduced += usize::from(minimize(&b).reduced());
        let ctx = Analysis::new(a.clone());
        let other = Analysis::new(b.clone());
        let (subset, equal) = (
            a.is_subset_of_via_complement(&b),
            a.equivalent_via_complement(&b),
        );
        // Automaton first for inclusion, context first for equivalence.
        assert_eq!(
            ctx.is_subset_of(&b),
            subset,
            "case {case}: Analysis::is_subset_of"
        );
        assert_eq!(
            ctx.is_subset_of(&other),
            subset,
            "case {case}: Analysis::is_subset_of on the context"
        );
        assert_eq!(
            ctx.equivalent(&other),
            equal,
            "case {case}: Analysis::equivalent on the context"
        );
        assert_eq!(
            ctx.equivalent(&b),
            equal,
            "case {case}: Analysis::equivalent"
        );
        let s = ctx.stats_total();
        assert_eq!(
            (s.inclusion_checks, s.inclusion_hits),
            (2, 2),
            "case {case}: each question runs the oracle once"
        );
    }
    assert!(reduced > 0, "no operand exercised the lent quotient");
}

/// Structural-invariant regression for the constructor audit: every
/// automaton-producing construction (product, trim, reduce, minimize,
/// complement) must keep the initial state and all transition targets in
/// range and every acceptance atom set inside the state set.
#[test]
fn constructions_preserve_structural_invariants() {
    fn assert_wellformed(case: &str, aut: &OmegaAutomaton) {
        let n = aut.num_states();
        assert!((aut.initial() as usize) < n, "{case}: initial out of range");
        for q in 0..n as u32 {
            for s in aut.alphabet().symbols() {
                assert!(
                    (aut.step(q, s) as usize) < n,
                    "{case}: transition target out of range"
                );
            }
        }
        for set in aut.acceptance().atom_sets() {
            assert!(
                set.iter().all(|q| q < n),
                "{case}: acceptance atom {set:?} mentions states ≥ {n}"
            );
        }
    }

    let mut rng = StdRng::seed_from_u64(0x57AB1E);
    let alphabet = sigma();
    for case in 0..25 {
        let n = rng.gen_range(2..=14usize);
        let (a, _) = random_streett(&mut rng, &alphabet, n, 2, 0.3);
        let m = rng.gen_range(2..=14usize);
        let b = random_rabin(&mut rng, &alphabet, m, 2, 0.3);
        assert_wellformed(&format!("case {case}: raw"), &a);
        assert_wellformed(&format!("case {case}: trim"), &a.trim());
        assert_wellformed(&format!("case {case}: reduce"), &a.reduce());
        assert_wellformed(&format!("case {case}: complement"), &a.complement());
        assert_wellformed(&format!("case {case}: intersection"), &a.intersection(&b));
        assert_wellformed(&format!("case {case}: union"), &a.union(&b));
        assert_wellformed(&format!("case {case}: difference"), &a.difference(&b));
        let m = minimize(&a);
        assert_wellformed(&format!("case {case}: minimize"), &m.quotient);
    }
}

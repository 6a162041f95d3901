//! Cross-validation of the shared [`Analysis`] context against
//! independent references, over random Streett automata, plus the
//! cache-efficiency guarantees the context is supposed to deliver.
//!
//! The references decide each question another way, written out inline:
//! safety and guarantee by the closure product (`A(Pref Π) ⊆ Π`, on the
//! automaton and on its complement), the Rabin index as the reactivity
//! index of the complement, the chain queries on a raw context with no
//! quotient routing, and the safety closure from the automaton's own
//! live states. Agreement checks the kernel safety/guarantee queries and
//! the full verdict against genuinely different algorithms.

use temporal_properties::automata::analysis::Analysis;
use temporal_properties::automata::bitset::BitSet;
use temporal_properties::automata::omega::OmegaAutomaton;
use temporal_properties::automata::random::random_parity;
use temporal_properties::automata::random::rng::{Rng, SeedableRng, StdRng};
use temporal_properties::automata::streett::{self, StreettPair, StreettPairs};
use temporal_properties::automata::StateId;
use temporal_properties::automata::{classify, par};
use temporal_properties::prelude::*;

fn sigma() -> Alphabet {
    Alphabet::new(["a", "b"]).unwrap()
}

/// A random deterministic Streett automaton over {a,b} with `n` states
/// and `pairs` Streett pairs.
fn rand_streett<R: Rng>(rng: &mut R, n: usize, pairs: usize) -> OmegaAutomaton {
    let delta: Vec<u32> = (0..n * 2).map(|_| rng.gen_range(0..n) as u32).collect();
    let rand_set = |rng: &mut R| -> Vec<usize> {
        let len = rng.gen_range(0..=n.min(8));
        (0..len).map(|_| rng.gen_range(0..n)).collect()
    };
    let pair_list: Vec<StreettPair> = (0..pairs)
        .map(|_| {
            let r = rand_set(rng);
            let p = rand_set(rng);
            StreettPair::new(r, p)
        })
        .collect();
    let pairs = StreettPairs(pair_list);
    let alphabet = sigma();
    OmegaAutomaton::build(
        &alphabet,
        n,
        0,
        |q, s| delta[q as usize * 2 + s.index()],
        pairs.acceptance(n),
    )
}

/// ~200 random Streett automata, n ∈ {4..64}, pairs ∈ {1..4}: the
/// context's full verdict must agree with every independent reference.
#[test]
fn analysis_agrees_with_independent_references_on_random_streett() {
    let mut rng = StdRng::seed_from_u64(2024);
    for case in 0..200 {
        let n = rng.gen_range(4..=64usize);
        let pairs = rng.gen_range(1..=4usize);
        let aut = rand_streett(&mut rng, n, pairs);
        let ctx = Analysis::new(aut.clone());
        let v = ctx.classification();

        // Safety and guarantee by the closure product: Π is closed iff
        // A(Pref Π) ⊆ Π, and open iff its complement is closed.
        assert_eq!(
            v.is_safety,
            ctx.safety_closure().is_subset_of(&aut),
            "case {case}: safety"
        );
        let co = Analysis::new(aut.complement());
        assert_eq!(
            v.is_guarantee,
            co.safety_closure().is_subset_of(co.automaton()),
            "case {case}: guarantee"
        );
        assert_eq!(ctx.is_safety(), v.is_safety, "case {case}: safety query");
        assert_eq!(
            ctx.is_guarantee(),
            v.is_guarantee,
            "case {case}: guarantee query"
        );

        // The chain queries on the raw automaton (no quotient routing).
        let raw = Analysis::new_raw(aut.clone());
        let r = raw.classification();
        assert_eq!(v.is_recurrence, r.is_recurrence, "case {case}: recurrence");
        assert_eq!(
            v.is_persistence, r.is_persistence,
            "case {case}: persistence"
        );
        assert_eq!(v.is_obligation, r.is_obligation, "case {case}: obligation");
        assert_eq!(
            v.is_simple_reactivity, r.is_simple_reactivity,
            "case {case}: simple reactivity"
        );
        assert_eq!(
            v.reactivity_index, r.reactivity_index,
            "case {case}: reactivity index"
        );
        assert_eq!(
            v.obligation_index, r.obligation_index,
            "case {case}: obligation index"
        );
        // The Rabin index read off the same walk is the reactivity index
        // of the complement, walked on its own.
        assert_eq!(
            ctx.rabin_index(),
            Analysis::new_raw(aut.complement()).reactivity_index(),
            "case {case}: rabin index"
        );
        assert_eq!(
            v.is_simple_reactivity,
            v.reactivity_index == 1,
            "case {case}: simple reactivity vs index"
        );

        // Emptiness / liveness agreement.
        assert_eq!(ctx.is_empty(), aut.is_empty(), "case {case}: emptiness");
        if let Some(w) = ctx.accepted_lasso() {
            assert!(aut.accepts(w), "case {case}: witness accepted");
        }
        let mut free_live = aut.live_states();
        free_live.intersect_with(ctx.reachable());
        assert_eq!(*ctx.live(), free_live, "case {case}: live set");

        // The closure from the cached live set is language-equal to the
        // closure over the automaton's own live states (they may differ
        // on unreachable dead sets).
        let dead = aut.live_states().complement(n);
        assert!(
            ctx.safety_closure()
                .equivalent(&aut.with_acceptance(Acceptance::Fin(dead))),
            "case {case}: safety closure"
        );
    }
}

/// Classifying a batch across the worker pool returns, at every worker
/// count, exactly the verdicts the per-automaton classifier produces — in
/// input order. The counts are pinned, so the pool path runs even where
/// `available_parallelism` is 1.
#[test]
fn pooled_classification_agrees_with_individual_classification() {
    let mut rng = StdRng::seed_from_u64(31337);
    let suite: Vec<OmegaAutomaton> = (0..40)
        .map(|_| {
            let n = rng.gen_range(4..=32usize);
            let pairs = rng.gen_range(1..=3usize);
            rand_streett(&mut rng, n, pairs)
        })
        .collect();
    let individual: Vec<_> = suite.iter().map(classify::classify).collect();
    for workers in [1usize, 2, 3, 8] {
        assert_eq!(
            par::map_with(workers, &suite, classify::classify),
            individual,
            "workers={workers}"
        );
    }
}

/// The full verdict runs strictly fewer SCC passes than the sum of the
/// individual queries' passes on fresh contexts — the point of sharing
/// one context. The passes are counted with `stats_total`, which covers
/// the quotient context the queries are routed to.
#[test]
fn full_verdict_beats_sum_of_individual_queries() {
    let mut rng = StdRng::seed_from_u64(7);
    let aut = rand_streett(&mut rng, 48, 3);

    // Individual queries, each on a fresh context (so nothing is shared).
    let mut sum_passes = 0;
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
        sum_passes += fresh.stats_total().scc_passes;
    }

    let shared = Analysis::new(aut.clone());
    let _ = shared.classification();
    let _ = shared.rabin_index();
    let full_passes = shared.stats_total().scc_passes;
    assert!(
        full_passes < sum_passes,
        "full verdict ({full_passes} passes) must beat independent \
         queries ({sum_passes} passes)"
    );
}

/// Classifying a 256-state 4-pair random
/// Streett automaton costs at most one SCC pass per color-lattice point
/// (2^m for m acceptance atoms), verified through the stats API; repeated
/// queries add zero passes. The counters are read with `stats_total`:
/// the classification runs on the quotient context, whose passes and
/// hits `stats` alone leaves out.
#[test]
fn classification_stays_within_lattice_pass_budget() {
    let mut rng = StdRng::seed_from_u64(99);
    let aut = rand_streett(&mut rng, 256, 4);
    let m = aut.acceptance().atom_sets().len();
    let ctx = Analysis::new(aut.clone());
    let verdict = ctx.classification().clone();
    let _ = ctx.rabin_index();
    let _ = ctx.safety_closure();
    let _ = ctx.accepted_lasso();
    let stats = ctx.stats_total();
    assert!(
        stats.scc_passes <= 1 << m,
        "{} SCC passes exceed the lattice budget 2^{m}",
        stats.scc_passes
    );
    // Repeated queries are served entirely from cache.
    let passes = ctx.stats_total().scc_passes;
    for _ in 0..5 {
        assert_eq!(ctx.classification(), &verdict);
        let _ = ctx.safety_closure();
        let _ = ctx.rabin_index();
    }
    assert_eq!(
        ctx.stats_total().scc_passes,
        passes,
        "no new passes on repeat"
    );
    assert!(ctx.stats_total().scc_hits > 0, "repeats must hit the cache");
}

/// A 64-state parity automaton with 24 priorities (23 acceptance atoms)
/// classifies in at most 169 SCC passes: the alternating cycle
/// decomposition restricts to `reachable − (E_{<a} ∪ O_{<b})`, even
/// levels below `a` and odd levels below `b`, so at most 13 · 13
/// restrictions arise. Its indices are dual to its complement's.
#[test]
fn parity_with_24_priorities_classifies_within_169_passes() {
    let sigma = sigma();
    let mut rng = StdRng::seed_from_u64(3);
    let aut = random_parity(&mut rng, &sigma, 64, 23);
    assert_eq!(aut.acceptance().atom_sets().len(), 23);
    let ctx = Analysis::new_raw(aut.clone());
    let verdict = ctx.classification().clone();
    let passes = ctx.stats_total().scc_passes;
    assert!(passes <= 169, "{passes} SCC passes");
    let co = Analysis::new_raw(aut.complement());
    assert_eq!(verdict.reactivity_index, co.rabin_index());
    assert_eq!(ctx.rabin_index(), co.reactivity_index());
    assert_ne!(
        verdict.reactivity_index,
        ctx.rabin_index(),
        "the seed is chosen so the two indices differ"
    );
}

/// The Rabin "clique" with `k` pairs: `2k` states, symbol `j` leads to
/// state `j`, acceptance `⋁ᵢ Fin{2i} ∧ Inf{2i+1}`.
fn rabin_clique(k: usize) -> OmegaAutomaton {
    let sigma = Alphabet::new((0..2 * k).map(|j| format!("s{j}"))).unwrap();
    let pairs: Vec<(BitSet, BitSet)> = (0..k)
        .map(|i| (BitSet::from_iter([2 * i]), BitSet::from_iter([2 * i + 1])))
        .collect();
    OmegaAutomaton::build(
        &sigma,
        2 * k,
        0,
        |_, s| s.index() as StateId,
        streett::rabin(&pairs),
    )
}

/// The Rabin clique with `k` pairs has Rabin index `k` and reactivity
/// index `k`: the index counts the loops of one status on a chain, and
/// the clique's longest alternating chain holds `k` accepting and `k`
/// rejecting loops (it is topped by a rejecting one). Overlapping loops
/// share sub-loops, so the subtree below each region is computed once:
/// at `k = 9` the decomposition takes 2,815 SCC passes and serves 4,090
/// requests from the memo.
#[test]
fn rabin_clique_indices_and_region_memo() {
    for k in 2..=8 {
        let ctx = Analysis::new_raw(rabin_clique(k));
        assert_eq!(ctx.reactivity_index(), k, "k = {k}");
        assert_eq!(ctx.rabin_index(), k, "k = {k}");
    }
    let ctx = Analysis::new_raw(rabin_clique(9));
    assert_eq!(ctx.reactivity_index(), 9);
    let stats = ctx.stats_total();
    assert!(
        stats.scc_hits <= 4 * stats.scc_passes,
        "{} hits for {} passes",
        stats.scc_hits,
        stats.scc_passes
    );
}

/// Repeated Property-level queries hit the context caches: the second
/// round of class/report/inclusion queries adds no SCC passes or product
/// builds. The counters include the quotient context's work, so the
/// first reading shows the passes of a classification that ran there.
#[test]
fn property_queries_are_incremental() {
    // □◇b as a doubled last-symbol tracker: states 0/2 after `a`, 1/3
    // after `b`, each step switching copies. `minimize` merges the copies,
    // so classification runs on the two-state quotient.
    let b = sigma().symbol("b").unwrap();
    let doubled = OmegaAutomaton::build(
        &sigma(),
        4,
        0,
        |q, s| (if q < 2 { 2 } else { 0 }) + StateId::from(s == b),
        Acceptance::inf([1, 3]),
    );
    let prop = Property::from_automaton(doubled);
    let _ = prop.class();
    let first = prop.analysis_stats();
    assert!(first.scc_passes > 0, "{first:?}");
    let _ = prop.class();
    assert_eq!(prop.analysis_stats().scc_passes, first.scc_passes);

    let mut rng = StdRng::seed_from_u64(41);
    let aut = rand_streett(&mut rng, 24, 2);
    let other = Property::from_automaton(rand_streett(&mut rng, 8, 1));
    let prop = Property::from_automaton(aut);

    let _ = prop.class();
    let _ = prop.classification().borel_name();
    let _ = prop.is_subset_of(&other);
    let first = prop.analysis_stats();

    let _ = prop.class();
    let _ = prop.classification().borel_name();
    let _ = prop.is_subset_of(&other);
    let second = prop.analysis_stats();

    assert_eq!(first.scc_passes, second.scc_passes);
    assert_eq!(first.inclusion_checks, second.inclusion_checks);
    assert!(second.inclusion_hits > first.inclusion_hits);
}

//! Property-based tests of the hierarchy's core invariants, driven by the
//! vendored PRNG over random automata, finitary properties, formulas, and
//! lasso words (no external proptest dependency: each invariant is checked
//! over a seeded sweep of random cases, and failures report the case
//! index so a run is reproducible from the seed).

use temporal_properties::automata::acceptance::Acceptance;
use temporal_properties::automata::classify;
use temporal_properties::automata::omega::OmegaAutomaton;
use temporal_properties::automata::random::rng::{Rng, SeedableRng, StdRng};
use temporal_properties::automata::streett::{StreettPair, StreettPairs};
use temporal_properties::lang::{operators, FinitaryProperty};
use temporal_properties::prelude::*;
use temporal_properties::topology::{closure, decomposition, density};

fn sigma() -> Alphabet {
    Alphabet::new(["a", "b"]).unwrap()
}

/// A random deterministic Streett automaton over {a,b} with between 2 and
/// `max_states` states and `pairs` Streett pairs.
fn rand_streett<R: Rng>(rng: &mut R, max_states: usize, pairs: usize) -> OmegaAutomaton {
    let n = rng.gen_range(2..=max_states);
    let delta: Vec<u32> = (0..n * 2).map(|_| rng.gen_range(0..n) as u32).collect();
    let rand_set = |rng: &mut R| -> Vec<usize> {
        let len = rng.gen_range(0..=n);
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

/// A random lasso over {a,b}: spoke length 0..6, cycle length 1..5.
fn rand_lasso<R: Rng>(rng: &mut R) -> Lasso {
    let spoke_len = rng.gen_range(0..6usize);
    let cycle_len = rng.gen_range(1..5usize);
    let word = |rng: &mut R, len: usize| -> Vec<Symbol> {
        (0..len)
            .map(|_| Symbol(rng.gen_range(0..2usize) as u8))
            .collect()
    };
    let u = word(rng, spoke_len);
    let v = word(rng, cycle_len);
    Lasso::new(u, v)
}

/// A random finitary property via a random DFA table (2..=5 states).
fn rand_finitary<R: Rng>(rng: &mut R) -> FinitaryProperty {
    let n = rng.gen_range(2..=5usize);
    let delta: Vec<u32> = (0..n * 2).map(|_| rng.gen_range(0..n) as u32).collect();
    let acc: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let alphabet = sigma();
    let dfa = temporal_properties::automata::dfa::Dfa::build(
        &alphabet,
        n,
        0,
        |q, s| delta[q as usize * 2 + s.index()],
        acc.iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as u32),
    );
    FinitaryProperty::from_dfa(dfa)
}

/// Runs `check` on `cases` seeded random draws, reporting the failing case.
fn sweep(name: &str, seed: u64, cases: usize, mut check: impl FnMut(&mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&mut rng)));
        if let Err(e) = result {
            eprintln!("invariant `{name}` failed at case {case} (seed {seed})");
            std::panic::resume_unwind(e);
        }
    }
}

/// Figure 1's lattice: the membership flags respect the inclusions.
#[test]
fn classification_respects_inclusion_lattice() {
    sweep("inclusion_lattice", 101, 64, |rng| {
        let aut = rand_streett(rng, 6, 2);
        let c = classify::classify(&aut);
        assert!(!c.is_safety || c.is_obligation);
        assert!(!c.is_guarantee || c.is_obligation);
        assert_eq!(c.is_obligation, c.is_recurrence && c.is_persistence);
        assert!(!c.is_recurrence || c.is_simple_reactivity);
        assert!(!c.is_persistence || c.is_simple_reactivity);
        assert!(c.reactivity_index >= 1);
        assert!(!c.is_simple_reactivity || c.reactivity_index == 1);
        if let Some(k) = c.obligation_index {
            assert!(k >= 1);
        }
    });
}

/// Classification is a language invariant: complement swaps the dual
/// classes.
#[test]
fn complement_swaps_dual_classes() {
    sweep("complement_duality", 102, 64, |rng| {
        let aut = rand_streett(rng, 5, 2);
        let c = classify::classify(&aut);
        let cc = classify::classify(&aut.complement());
        assert_eq!(c.is_safety, cc.is_guarantee);
        assert_eq!(c.is_guarantee, cc.is_safety);
        assert_eq!(c.is_recurrence, cc.is_persistence);
        assert_eq!(c.is_persistence, cc.is_recurrence);
        assert_eq!(c.is_obligation, cc.is_obligation);
        // The reactivity index of L is the Rabin index of ¬L (and the
        // Rabin index of L the reactivity index of ¬L); index 1 is
        // exactly simple reactivity.
        let rabin = |aut: &OmegaAutomaton| Analysis::new(aut.clone()).rabin_index();
        assert_eq!(c.reactivity_index, rabin(&aut.complement()));
        assert_eq!(rabin(&aut), cc.reactivity_index);
        assert_eq!(c.is_simple_reactivity, c.reactivity_index == 1);
        assert_eq!(cc.is_simple_reactivity, cc.reactivity_index == 1);
    });
}

/// The safety closure is the smallest safety superset (on samples).
#[test]
fn safety_closure_properties() {
    sweep("safety_closure", 103, 64, |rng| {
        let aut = rand_streett(rng, 5, 1);
        let cl = closure::closure(&aut);
        assert!(aut.is_subset_of(&cl));
        assert!(closure::is_closed(&cl));
        // Idempotence.
        assert!(closure::closure(&cl).equivalent(&cl));
    });
}

/// Safety–liveness decomposition is always valid.
#[test]
fn decomposition_always_valid() {
    sweep("decomposition_valid", 104, 64, |rng| {
        let aut = rand_streett(rng, 5, 2);
        assert!(decomposition::decomposition_is_valid(&aut));
    });
}

/// Boolean structure of the automata algebra on sampled words.
#[test]
fn boolean_algebra_on_words() {
    sweep("boolean_algebra", 105, 64, |rng| {
        let aut1 = rand_streett(rng, 4, 1);
        let aut2 = rand_streett(rng, 4, 1);
        let w = rand_lasso(rng);
        let in1 = aut1.accepts(&w);
        let in2 = aut2.accepts(&w);
        assert_eq!(aut1.union(&aut2).accepts(&w), in1 || in2);
        assert_eq!(aut1.intersection(&aut2).accepts(&w), in1 && in2);
        assert_eq!(aut1.complement().accepts(&w), !in1);
        assert_eq!(aut1.difference(&aut2).accepts(&w), in1 && !in2);
    });
}

/// The four operators sit in their classes for every finitary Φ.
#[test]
fn operators_land_in_their_classes() {
    sweep("operator_classes", 106, 64, |rng| {
        let phi = rand_finitary(rng);
        assert!(classify::classify(&operators::a(&phi)).is_safety);
        assert!(classify::classify(&operators::e(&phi)).is_guarantee);
        assert!(classify::classify(&operators::r(&phi)).is_recurrence);
        assert!(classify::classify(&operators::p(&phi)).is_persistence);
    });
}

/// The operator dualities for every finitary Φ.
#[test]
fn operator_dualities() {
    sweep("operator_dualities", 107, 64, |rng| {
        let phi = rand_finitary(rng);
        assert!(operators::a(&phi)
            .complement()
            .equivalent(&operators::e(&phi.complement())));
        assert!(operators::r(&phi)
            .complement()
            .equivalent(&operators::p(&phi.complement())));
    });
}

/// The minex law R(Φ₁) ∩ R(Φ₂) = R(minex(Φ₁,Φ₂)).
#[test]
fn minex_law() {
    sweep("minex_law", 108, 64, |rng| {
        let f1 = rand_finitary(rng);
        let f2 = rand_finitary(rng);
        assert!(operators::r(&f1)
            .intersection(&operators::r(&f2))
            .equivalent(&operators::r(&f1.minex(&f2))));
    });
}

/// Membership in A/E/R/P matches the prefix-counting definition on
/// sampled lassos: count the prefixes of w in Φ up to stabilization.
#[test]
fn operator_semantics_on_words() {
    sweep("operator_semantics", 109, 64, |rng| {
        let phi = rand_finitary(rng);
        let w = rand_lasso(rng);
        // Drive Φ's DFA along w; by |u| + |Q|·|v| steps the acceptance
        // pattern over loop offsets has stabilized.
        let dfa = phi.dfa();
        let spoke = w.spoke().len();
        let cyc = w.cycle().len();
        // The DFA state at loop entries becomes periodic within |Q| loop
        // traversals, so everything past spoke + |Q|·cyc is periodic with
        // period dividing |Q|·cyc; a window of that length taken at the
        // very end is therefore a full period of the tail.
        let horizon = spoke + 2 * dfa.num_states() * cyc;
        let mut q = dfa.initial();
        let mut hits = Vec::new(); // prefix lengths in Φ
        for j in 0..horizon {
            q = dfa.step(q, w.at(j));
            hits.push(dfa.is_accepting(q));
        }
        // Tail pattern: does Φ hold for infinitely many prefixes /
        // cofinitely many? Examine the final |Q|·|v| window.
        let window = &hits[horizon - dfa.num_states() * cyc..];
        let inf_many = window.iter().any(|&b| b);
        let cof_many = window.iter().all(|&b| b);
        assert_eq!(operators::r(&phi).accepts(&w), inf_many);
        assert_eq!(operators::p(&phi).accepts(&w), cof_many);
        assert_eq!(operators::e(&phi).accepts(&w), hits.iter().any(|&b| b));
        assert_eq!(operators::a(&phi).accepts(&w), hits.iter().all(|&b| b));
    });
}

/// Liveness (density) of the liveness extension, for any property.
#[test]
fn liveness_extension_is_dense() {
    sweep("liveness_extension", 110, 64, |rng| {
        let aut = rand_streett(rng, 5, 2);
        let l = decomposition::liveness_extension(&Analysis::new(aut));
        assert!(density::is_dense(&l));
    });
}

/// Acceptance evaluation is consistent between the boolean condition
/// and its DNF.
#[test]
fn acceptance_dnf_consistency() {
    sweep("dnf_consistency", 111, 64, |rng| {
        let aut = rand_streett(rng, 5, 2);
        let w = rand_lasso(rng);
        let inf = aut.infinity_set(&w);
        let direct = aut.acceptance().accepts_infinity_set(&inf);
        let via_dnf = aut.acceptance().dnf().iter().any(|p| p.accepts_cycle(&inf));
        assert_eq!(direct, via_dnf);
        assert_eq!(direct, aut.accepts(&w));
    });
}

/// Negation normal form preserves semantics on sampled lassos
/// (future-over-past fragment only).
#[test]
fn nnf_preserves_semantics() {
    use temporal_properties::logic::{rewrites, semantics};
    sweep("nnf_semantics", 112, 32, |rng| {
        let seed = rng.gen_range(0..1000usize);
        let w = rand_lasso(rng);
        let alphabet = sigma();
        // A small pool of formulas, negated.
        let sources = [
            "G (a -> F b)",
            "a U b",
            "F G a",
            "G F b",
            "a W b",
            "G (b -> Y a)",
            "F (a & O b)",
        ];
        let src = sources[seed % sources.len()];
        let f = Formula::parse(&alphabet, src).unwrap().not();
        let g = rewrites::nnf(&f);
        let lhs = semantics::holds(&f, &w);
        let rhs = semantics::holds(&g, &w);
        if let (Ok(l), Ok(r)) = (lhs, rhs) {
            assert_eq!(l, r, "nnf changed semantics of ¬({src})");
        }
    });
}

/// Static sanity check that the acceptance constructors compose (not a
/// random sweep; exercises the Acceptance API surface from an integration
/// context).
#[test]
fn acceptance_api_composes() {
    let acc = Acceptance::inf([0])
        .and(Acceptance::fin([1]).or(Acceptance::inf([2])))
        .negated();
    let atoms = acc.atom_sets();
    assert_eq!(atoms.len(), 3);
}

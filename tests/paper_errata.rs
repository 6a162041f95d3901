//! The five errata found while reproducing the paper, each verified as an
//! executable test (see EXPERIMENTS.md § Errata for the prose versions).

use temporal_properties::automata::classify;
use temporal_properties::automata::paper_checks;
use temporal_properties::automata::streett::{StreettPair, StreettPairs};
use temporal_properties::lang::{witnesses, FinitaryProperty};
use temporal_properties::prelude::*;
use temporal_properties::topology::density;

/// Erratum 1: the §2 guarantee example `E(a⁺b*)` over Σ = {a,b} is clopen.
#[test]
fn erratum_1_guarantee_example_is_clopen() {
    let c = classify::classify(&witnesses::guarantee_paper_example());
    assert!(c.is_guarantee, "the paper's classification is correct…");
    assert!(c.is_safety, "…but the example is also safety (a·Σ^ω)");
    // The strict witness used instead:
    let strict = classify::classify(&witnesses::guarantee());
    assert!(strict.is_guarantee && !strict.is_safety);
}

/// Erratum 2: `minex((a³)⁺, (a²)⁺)` cannot contain `a²`.
#[test]
fn erratum_2_minex_example() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let p3 = FinitaryProperty::parse(&sigma, "(aaa)+").unwrap();
    let p2 = FinitaryProperty::parse(&sigma, "(aa)+").unwrap();
    let m = p3.minex(&p2);
    // a² has no proper (a³)⁺-prefix:
    assert!(!m.contains_str("aa").unwrap());
    // The corrected language:
    let corrected = FinitaryProperty::parse(&sigma, "(aaaaaa)(aaaaaa)*aa + (aaaaaa)*aaaa").unwrap();
    assert!(m.equivalent(&corrected));
    // The law the example illustrates is unaffected:
    use temporal_properties::lang::operators;
    assert!(operators::r(&p3)
        .intersection(&operators::r(&p2))
        .equivalent(&operators::r(&m)));
}

/// Erratum 3: the `Obl_k` family as printed collapses to `Obl₁`.
#[test]
fn erratum_3_printed_obligation_family_collapses() {
    for k in 2..=5 {
        let printed = classify::classify(&witnesses::obligation_witness_as_printed(k));
        assert_eq!(printed.obligation_index, Some(1), "printed family k={k}");
        let corrected = classify::classify(&witnesses::obligation_witness(k));
        assert_eq!(
            corrected.obligation_index,
            Some(k),
            "corrected family k={k}"
        );
    }
}

/// Erratum 4: the §5.1 structural safety check is unsound for ≥ 2 pairs.
#[test]
fn erratum_4_multipair_structural_check_unsound() {
    // Hand-crafted counterexample: two states, each "bad" w.r.t. one pair
    // but the 2-cycle satisfies both pairs crosswise.
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    // Transition: stay on a, swap on b.
    let b = sigma.symbol("b").unwrap();
    let pairs = StreettPairs(vec![
        StreettPair::new([0], []), // pair 1: Inf{0}
        StreettPair::new([1], []), // pair 2: Inf{1}
    ]);
    let aut = OmegaAutomaton::build(
        &sigma,
        2,
        0,
        |q, s| if s == b { 1 - q } else { q },
        pairs.acceptance(2),
    );
    // G = (R₁∪P₁) ∩ (R₂∪P₂) = {0} ∩ {1} = ∅: every state is "bad", so
    // B̂ ∩ G = ∅ holds vacuously and the structural check says "safety"…
    assert!(paper_checks::is_safety_structural(&aut, &pairs));
    // …but the language is "infinitely many of each", a strict recurrence
    // property, not safety.
    let c = classify::classify(&aut);
    assert!(!c.is_safety);
    assert!(c.is_recurrence);
    // For a single pair the check is sound on this shape:
    let single = StreettPairs::single(StreettPair::new([0], []));
    let aut1 = aut.with_acceptance(single.acceptance(2));
    assert_eq!(
        paper_checks::is_safety_structural(&aut1, &single),
        classify::classify(&aut1).is_safety
    );
}

/// Erratum 5: the uniform-liveness counterexample admits σ′ = aabb^ω.
#[test]
fn erratum_5_uniform_liveness_example() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let a = sigma.symbol("a").unwrap();
    // a·Σ*·aa·Σ^ω + b·Σ*·bb·Σ^ω, exactly as in the paper.
    let m = OmegaAutomaton::build(
        &sigma,
        7,
        0,
        move |q, s| match (q, s == a) {
            (0, true) => 1,
            (0, false) => 4,
            (1, true) => 2,
            (1, false) => 1,
            (2, true) => 3,
            (2, false) => 1,
            (3, _) => 3,
            (4, false) => 5,
            (4, true) => 4,
            (5, false) => 6,
            (5, true) => 4,
            (6, _) => 6,
            _ => unreachable!(),
        },
        Acceptance::inf([3, 6]),
    );
    assert!(density::is_dense(&m), "liveness, as the paper says");
    // The paper claims no uniform extension exists; one does.
    let w = density::uniform_liveness_witness(&m).expect("uniform extension exists");
    // Verify the witness against a brute sample of prefixes.
    for prefix in ["a", "b", "ab", "ba", "abab", "bbbb"] {
        let mut spoke: Vec<Symbol> = prefix
            .chars()
            .map(|c| sigma.symbol(&c.to_string()).unwrap())
            .collect();
        spoke.extend_from_slice(w.spoke());
        assert!(
            m.accepts(&Lasso::new(spoke, w.cycle().to_vec())),
            "uniform witness fails after {prefix}"
        );
    }
}

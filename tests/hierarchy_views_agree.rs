//! Cross-crate integration: the paper's four views agree.
//!
//! For a battery of properties defined simultaneously through the
//! linguistic view (operators over regexes), the logic view (formulas),
//! and the automata view (hand-built automata), all representations must
//! denote the same ω-language and receive the same classification.

use temporal_properties::automata::classify;
use temporal_properties::lang::{operators, FinitaryProperty};
use temporal_properties::logic::semantics;
use temporal_properties::logic::to_automaton::compile_over;
use temporal_properties::prelude::*;

fn sigma() -> Alphabet {
    Alphabet::new(["a", "b"]).unwrap()
}

/// (formula, Φ-regex, operator, expected class name)
fn battery() -> Vec<(&'static str, &'static str, char, &'static str)> {
    vec![
        ("G a", "aa*", 'A', "safety"),
        ("F b", ".*b", 'E', "guarantee"),
        ("G F b", ".*b", 'R', "recurrence"),
        ("F G b", ".*b", 'P', "persistence"),
        ("a", "aa*b*", 'E', "safety ∩ guarantee"),
        ("G (b -> Y a)", "(a+b)*b + .", 'X', "safety"), // automaton view only below
    ]
}

#[test]
fn linguistic_and_logic_views_coincide() {
    let sigma = sigma();
    for (formula_src, phi_src, op, _class) in battery() {
        if op == 'X' {
            continue;
        }
        let phi = FinitaryProperty::parse(&sigma, phi_src).unwrap();
        let via_lang = match op {
            'A' => operators::a(&phi),
            'E' => operators::e(&phi),
            'R' => operators::r(&phi),
            'P' => operators::p(&phi),
            _ => unreachable!(),
        };
        let f = Formula::parse(&sigma, formula_src).unwrap();
        let via_logic = compile_over(&sigma, &f).unwrap();
        assert!(
            via_lang.equivalent(&via_logic),
            "views disagree for {formula_src}"
        );
    }
}

#[test]
fn classification_is_representation_independent() {
    let sigma = sigma();
    for (formula_src, phi_src, op, class) in battery() {
        let f = Formula::parse(&sigma, formula_src).unwrap();
        let via_logic = compile_over(&sigma, &f).unwrap();
        assert_eq!(
            classify::classify(&via_logic).strictest_class_name(),
            class,
            "logic view class of {formula_src}"
        );
        if op != 'X' {
            let phi = FinitaryProperty::parse(&sigma, phi_src).unwrap();
            let via_lang = match op {
                'A' => operators::a(&phi),
                'E' => operators::e(&phi),
                'R' => operators::r(&phi),
                'P' => operators::p(&phi),
                _ => unreachable!(),
            };
            assert_eq!(
                classify::classify(&via_lang).strictest_class_name(),
                class,
                "lang view class of {formula_src}"
            );
        }
    }
}

#[test]
fn formula_semantics_agree_with_compiled_automata_on_lassos() {
    use temporal_properties::automata::random::rng::SeedableRng;
    use temporal_properties::automata::random::rng::StdRng;
    let sigma = sigma();
    let mut rng = StdRng::seed_from_u64(123);
    let formulas = [
        "G (a -> F b)",
        "F (b & Y H a)",
        "G F a -> G F b",
        "a U b",
        "a W b",
        "G (b -> O a) | F G a",
        "X (a | X b)",
        "F G a",
    ];
    for src in formulas {
        let f = Formula::parse(&sigma, src).unwrap();
        let aut = compile_over(&sigma, &f).unwrap();
        for _ in 0..150 {
            let w = temporal_properties::automata::random::random_lasso(&mut rng, &sigma, 5, 4);
            assert_eq!(
                semantics::holds(&f, &w).unwrap(),
                aut.accepts(&w),
                "{src} on {}",
                w.display(&sigma)
            );
        }
    }
}

#[test]
fn property_api_matches_raw_pipeline() {
    let sigma = sigma();
    let p = Property::parse(&sigma, "G (a -> F b)").unwrap();
    let f = Formula::parse(&sigma, "G (a -> F b)").unwrap();
    let raw = compile_over(&sigma, &f).unwrap();
    assert!(p.automaton().equivalent(&raw));
    assert_eq!(p.class(), HierarchyClass::Recurrence);
    assert_eq!(
        p.report().syntactic,
        Some(temporal_properties::logic::SyntacticClass::Recurrence)
    );
}

#[test]
fn borel_names_match_topology() {
    use temporal_properties::topology::closure;
    let sigma = sigma();
    let cases = [
        ("G a", "Π₁"),
        ("F b", "Σ₁"),
        ("G F b", "Π₂"),
        ("F G b", "Σ₂"),
    ];
    for (src, borel) in cases {
        let p = Property::parse(&sigma, src).unwrap();
        assert_eq!(p.report().borel, borel, "{src}");
        // Topological predicates agree with the Borel name.
        match borel {
            "Π₁" => assert!(closure::is_closed(p.automaton())),
            "Σ₁" => assert!(closure::is_open(p.automaton())),
            "Π₂" => {
                assert!(closure::is_g_delta(p.automaton()) && !closure::is_f_sigma(p.automaton()))
            }
            "Σ₂" => {
                assert!(closure::is_f_sigma(p.automaton()) && !closure::is_g_delta(p.automaton()))
            }
            _ => unreachable!(),
        }
    }
}

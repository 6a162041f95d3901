//! Edge cases across the workspace: degenerate automata, extreme
//! alphabets, trivial languages, and De Morgan identities.

use temporal_properties::automata::classify;
use temporal_properties::lang::FinitaryProperty;
use temporal_properties::prelude::*;

#[test]
fn sixty_four_symbol_alphabet() {
    let names: Vec<String> = (0..64).map(|i| format!("s{i}")).collect();
    let sigma = Alphabet::new(names).unwrap();
    assert_eq!(sigma.len(), 64);
    assert_eq!(sigma.full_set().len(), 64);
    // A safety property over the big alphabet: never the last symbol.
    let last = Symbol(63);
    let m = OmegaAutomaton::build(
        &sigma,
        2,
        0,
        move |q, s| if q == 1 || s == last { 1 } else { 0 },
        Acceptance::fin([1]),
    );
    let c = classify::classify(&m);
    assert!(c.is_safety && !c.is_guarantee);
    let w = Lasso::new(vec![], vec![Symbol(0)]);
    assert!(m.accepts(&w));
    let bad = Lasso::new(vec![Symbol(63)], vec![Symbol(0)]);
    assert!(!m.accepts(&bad));
}

#[test]
fn single_state_automata() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    for acc in [
        Acceptance::True,
        Acceptance::False,
        Acceptance::inf([0]),
        Acceptance::fin([0]),
    ] {
        let m = OmegaAutomaton::build(&sigma, 1, 0, |_, _| 0, acc.clone());
        let c = classify::classify(&m);
        // A one-state automaton is either ∅ or Σ^ω: both clopen.
        assert!(c.is_safety && c.is_guarantee, "acc = {acc:?}");
        assert_eq!(c.obligation_index, Some(1));
        assert_eq!(c.reactivity_index, 1);
        assert!(m.is_empty() || m.is_universal());
    }
}

#[test]
fn de_morgan_on_automata() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let b = sigma.symbol("b").unwrap();
    let m = OmegaAutomaton::build(
        &sigma,
        2,
        0,
        |_, s| if s == b { 1 } else { 0 },
        Acceptance::inf([1]),
    );
    let n = m.with_acceptance(Acceptance::fin([0]));
    // ¬(M ∪ N) = ¬M ∩ ¬N and ¬(M ∩ N) = ¬M ∪ ¬N.
    assert!(m
        .union(&n)
        .complement()
        .equivalent(&m.complement().intersection(&n.complement())));
    assert!(m
        .intersection(&n)
        .complement()
        .equivalent(&m.complement().union(&n.complement())));
    // Difference in terms of the primitives.
    assert!(m
        .difference(&n)
        .equivalent(&m.intersection(&n.complement())));
}

#[test]
fn finitary_edge_cases() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let empty = FinitaryProperty::empty(&sigma);
    let full = FinitaryProperty::sigma_plus(&sigma);
    assert!(empty.is_empty());
    assert!(empty.complement().equivalent(&full));
    assert!(full.complement().is_empty());
    // A_f/E_f of the extremes.
    assert!(empty.a_f().is_empty());
    assert!(empty.e_f().is_empty());
    assert!(full.a_f().equivalent(&full));
    assert!(full.e_f().equivalent(&full));
    // minex with the empty property is empty on both sides.
    assert!(empty.minex(&full).is_empty());
    assert!(full.minex(&empty).is_empty());
    // Operators on the extremes.
    use temporal_properties::lang::operators;
    assert!(operators::a(&empty).is_empty()); // no non-empty prefix in ∅
    assert!(operators::e(&empty).is_empty());
    assert!(operators::r(&full).is_universal());
    assert!(operators::p(&full).is_universal());
    assert!(operators::a(&full).is_universal());
}

#[test]
fn lasso_normalization_torture() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    // aaaa(aaab)^ω in several presentations.
    let w1 = Lasso::parse(&sigma, "aaaa", "aaab").unwrap();
    let w2 = Lasso::parse(&sigma, "aaaaaaa", "baaa").unwrap();
    let w3 = Lasso::parse(&sigma, "aaaa", "aaabaaab").unwrap();
    assert!(w1.same_word(&w2));
    assert!(w1.same_word(&w3));
    let w4 = Lasso::parse(&sigma, "aaa", "aaab").unwrap();
    assert!(!w1.same_word(&w4));
}

#[test]
fn formula_constants_compile() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    use temporal_properties::logic::to_automaton::compile_over;
    let t = compile_over(&sigma, &Formula::True).unwrap();
    assert!(t.is_universal());
    let f = compile_over(&sigma, &Formula::False).unwrap();
    assert!(f.is_empty());
    // G true and F false.
    let gt = compile_over(&sigma, &Formula::parse(&sigma, "G true").unwrap()).unwrap();
    assert!(gt.is_universal());
    let ff = compile_over(&sigma, &Formula::parse(&sigma, "F false").unwrap()).unwrap();
    assert!(ff.is_empty());
}

#[test]
fn property_of_extremes() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let t = Property::parse(&sigma, "true").unwrap();
    let r = t.report();
    assert_eq!(r.class, HierarchyClass::Clopen);
    assert!(r.is_liveness && r.is_uniform_liveness);
    let f = Property::parse(&sigma, "false").unwrap();
    let r = f.report();
    assert_eq!(r.class, HierarchyClass::Clopen);
    assert!(!r.is_liveness);
}

#[test]
fn reduce_and_hoa_on_compiled_formulas() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let p = Property::parse(&sigma, "G (a -> F b)").unwrap();
    let reduced = p.automaton().reduce();
    assert!(reduced.equivalent(p.automaton()));
    let hoa = p.to_hoa();
    assert!(hoa.contains(&format!("States: {}", p.automaton().num_states())));
}

/// A 17-state generalized-Büchi automaton with 17 `Inf` sets: `G F c1`
/// over the mutual-exclusion observations, advancing `i → i + 1 mod 17`
/// on every symbol where `c1` holds. The full verdict, safety, guarantee,
/// the closure, the topological predicates, the Prop 5.1 safety
/// construction and invariant-first checking all answer, whatever the
/// number of acceptance atoms.
#[test]
fn seventeen_inf_sets_are_answered_without_the_lattice() {
    use temporal_properties::automata::paper_checks;
    use temporal_properties::fts::absint::{self, DomainKind};
    use temporal_properties::fts::checker::{check_with_invariants, verify};
    use temporal_properties::topology::closure;

    let sigma = Alphabet::of_propositions(["c1", "c2", "t1", "t2"]).unwrap();
    let acc = (0..17)
        .map(|i| Acceptance::inf([i]))
        .fold(Acceptance::True, Acceptance::and);
    let c1 = |s: Symbol| sigma.proposition_holds(s, 0);
    let aut = OmegaAutomaton::build(
        &sigma,
        17,
        0,
        |q, s| if c1(s) { (q + 1) % 17 } else { q },
        acc,
    );

    let ctx = Analysis::new(aut.clone());
    let c = ctx.classification();
    assert!(c.is_recurrence && !c.is_persistence && c.is_simple_reactivity);
    assert_eq!(c.strictest_class_name(), "recurrence");
    assert_eq!((c.reactivity_index, ctx.rabin_index()), (1, 1));
    assert!(!ctx.is_safety() && !ctx.is_guarantee());
    assert!(ctx.safety_closure().is_universal(), "G F c1 is dense");
    assert!(!closure::is_closed(&aut) && !closure::is_open(&aut));
    assert_eq!(paper_checks::safety_automaton(&aut), None);
    let complement = Analysis::new(aut.complement());
    assert_eq!(
        complement.classification().strictest_class_name(),
        "persistence"
    );
    assert!(!complement.is_safety() && !complement.is_guarantee());

    let (_, program) = absint::catalogue()
        .into_iter()
        .find(|(name, _)| *name == "mux-sem")
        .unwrap();
    let (verdict, _) =
        check_with_invariants(&program, &sigma, &aut, DomainKind::Relational).unwrap();
    let ts = program.to_builder(&sigma).build().unwrap();
    assert_eq!(verdict.holds(), verify(&ts, &aut).unwrap().holds());
}

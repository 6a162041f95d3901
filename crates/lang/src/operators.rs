//! The four infinitary operators **A, E, R, P** (Section 2), and `Pref`.
//!
//! Each operator maps a [`FinitaryProperty`] `Φ` to a deterministic
//! ω-automaton recognizing the corresponding infinitary property; the
//! resulting automata are in exactly the paper's structural shapes:
//!
//! * [`a`]`(Φ)` — a safety automaton (bad sink, acceptance "stay good");
//! * [`e`]`(Φ)` — a guarantee automaton (good states absorbing);
//! * [`r`]`(Φ)` — a recurrence (deterministic Büchi) automaton;
//! * [`p`]`(Φ)` — a persistence (deterministic co-Büchi) automaton.
//!
//! [`pref`] goes the other way: `Pref(Π)`, the finitary property of all
//! finite prefixes of an infinitary property, which characterizes safety
//! (`Π` is safety iff `Π = A(Pref(Π))`).

use crate::finitary::FinitaryProperty;
use hierarchy_automata::acceptance::Acceptance;
use hierarchy_automata::bitset::BitSet;
use hierarchy_automata::dfa::Dfa;
use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_automata::StateId;

/// `A(Φ)`: the infinite words all of whose non-empty prefixes belong to
/// `Φ` — a safety property.
pub fn a(phi: &FinitaryProperty) -> OmegaAutomaton {
    // Divert to a rejecting sink as soon as a prefix leaves Φ; accept iff
    // the sink is never entered.
    let dfa = phi.dfa();
    let n = dfa.num_states();
    let sink = n as StateId;
    OmegaAutomaton::build(
        phi.alphabet(),
        n + 1,
        dfa.initial(),
        |q, s| {
            if q == sink {
                return sink;
            }
            let t = dfa.step(q, s);
            if dfa.is_accepting(t) {
                t
            } else {
                sink
            }
        },
        Acceptance::Fin(BitSet::from_iter([sink as usize])),
    )
    .trim()
}

/// `E(Φ) = Φ·Σ^ω`: the infinite words with some non-empty prefix in `Φ` —
/// a guarantee property.
pub fn e(phi: &FinitaryProperty) -> OmegaAutomaton {
    // Accepting states become absorbing; accept iff one is reached.
    let dfa = phi.dfa();
    let acc: BitSet = dfa.accepting().iter().collect();
    OmegaAutomaton::build(
        phi.alphabet(),
        dfa.num_states(),
        dfa.initial(),
        |q, s| {
            if dfa.is_accepting(q) {
                q
            } else {
                dfa.step(q, s)
            }
        },
        Acceptance::Inf(acc),
    )
    .trim()
}

/// `R(Φ)`: the infinite words with infinitely many prefixes in `Φ` — a
/// recurrence property (deterministic Büchi).
pub fn r(phi: &FinitaryProperty) -> OmegaAutomaton {
    let dfa = phi.dfa();
    let acc: BitSet = dfa.accepting().iter().collect();
    OmegaAutomaton::build(
        phi.alphabet(),
        dfa.num_states(),
        dfa.initial(),
        |q, s| dfa.step(q, s),
        Acceptance::Inf(acc),
    )
    .trim()
}

/// `P(Φ)`: the infinite words all but finitely many of whose prefixes are
/// in `Φ` — a persistence property (deterministic co-Büchi).
pub fn p(phi: &FinitaryProperty) -> OmegaAutomaton {
    let dfa = phi.dfa();
    let non_acc: BitSet = (0..dfa.num_states())
        .filter(|&q| !dfa.is_accepting(q as StateId))
        .collect();
    OmegaAutomaton::build(
        phi.alphabet(),
        dfa.num_states(),
        dfa.initial(),
        |q, s| dfa.step(q, s),
        Acceptance::Fin(non_acc),
    )
    .trim()
}

/// `Pref(Π)`: the finitary property of all non-empty finite prefixes of
/// words in `Π`.
///
/// For a deterministic complete automaton, a finite word is a prefix of
/// some accepted ω-word iff it leads to a *live* state (non-empty residual
/// language).
pub fn pref(aut: &OmegaAutomaton) -> FinitaryProperty {
    let live = aut.live_states();
    let dfa = Dfa::build(
        aut.alphabet(),
        aut.num_states(),
        aut.initial(),
        |q, s| aut.step(q, s),
        live.iter().map(|q| q as StateId),
    );
    FinitaryProperty::from_dfa(dfa)
}

/// The safety closure `A(Pref(Π))` computed through the linguistic
/// operators (the automata view computes the same thing directly as
/// [`Analysis::safety_closure`](hierarchy_automata::analysis::Analysis::safety_closure)).
pub fn safety_closure_linguistic(aut: &OmegaAutomaton) -> OmegaAutomaton {
    a(&pref(aut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::alphabet::Alphabet;
    use hierarchy_automata::analysis::Analysis;
    use hierarchy_automata::classify;
    use hierarchy_automata::lasso::Lasso;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    fn phi(sigma: &Alphabet, pat: &str) -> FinitaryProperty {
        FinitaryProperty::parse(sigma, pat).unwrap()
    }

    fn lasso(sigma: &Alphabet, u: &str, v: &str) -> Lasso {
        Lasso::parse(sigma, u, v).unwrap()
    }

    #[test]
    fn a_of_paper_example() {
        // A(a⁺b*) = a^ω + a⁺b^ω.
        let sigma = ab();
        let m = a(&phi(&sigma, "aa*b*"));
        assert!(m.accepts(&lasso(&sigma, "", "a")));
        assert!(m.accepts(&lasso(&sigma, "aa", "b")));
        assert!(!m.accepts(&lasso(&sigma, "", "b")));
        assert!(!m.accepts(&lasso(&sigma, "ab", "a")));
        assert!(!m.accepts(&lasso(&sigma, "", "ab")));
        assert!(classify::classify(&m).is_safety);
    }

    #[test]
    fn e_of_paper_example() {
        // E(a⁺b*) = a⁺b*·Σ^ω = a·Σ^ω over {a,b}.
        let sigma = ab();
        let m = e(&phi(&sigma, "aa*b*"));
        assert!(m.accepts(&lasso(&sigma, "a", "b")));
        assert!(m.accepts(&lasso(&sigma, "", "ab")));
        assert!(!m.accepts(&lasso(&sigma, "b", "a")));
        assert!(!m.accepts(&lasso(&sigma, "", "b")));
        assert!(classify::classify(&m).is_guarantee);
    }

    #[test]
    fn r_of_paper_example() {
        // R(Σ*b) = (Σ*b)^ω: infinitely many b.
        let sigma = ab();
        let m = r(&phi(&sigma, ".*b"));
        assert!(m.accepts(&lasso(&sigma, "", "ab")));
        assert!(m.accepts(&lasso(&sigma, "aaa", "b")));
        assert!(!m.accepts(&lasso(&sigma, "bbb", "a")));
        let c = classify::classify(&m);
        assert!(c.is_recurrence && !c.is_persistence && !c.is_obligation);
    }

    #[test]
    fn p_of_paper_example() {
        // P(Σ*b) = Σ*b^ω: eventually only b.
        let sigma = ab();
        let m = p(&phi(&sigma, ".*b"));
        assert!(m.accepts(&lasso(&sigma, "ab", "b")));
        assert!(m.accepts(&lasso(&sigma, "", "b")));
        assert!(!m.accepts(&lasso(&sigma, "", "ab")));
        assert!(!m.accepts(&lasso(&sigma, "b", "a")));
        let c = classify::classify(&m);
        assert!(c.is_persistence && !c.is_recurrence && !c.is_obligation);
    }

    #[test]
    fn operator_dualities() {
        // ¬A(Φ) = E(¬Φ) and ¬R(Φ) = P(¬Φ).
        let sigma = ab();
        for pat in ["aa*b*", ".*b", "a*b", "(ab)+"] {
            let f = phi(&sigma, pat);
            assert!(
                a(&f).complement().equivalent(&e(&f.complement())),
                "A/E duality failed on {pat}"
            );
            assert!(
                r(&f).complement().equivalent(&p(&f.complement())),
                "R/P duality failed on {pat}"
            );
        }
    }

    #[test]
    fn guarantee_union_intersection_laws() {
        // E(Φ₁) ∪ E(Φ₂) = E(Φ₁ ∪ Φ₂);
        // E(Φ₁) ∩ E(Φ₂) = E(E_f(Φ₁) ∩ E_f(Φ₂)).
        let sigma = ab();
        let f1 = phi(&sigma, "a*b");
        let f2 = phi(&sigma, "b*a");
        assert!(e(&f1).union(&e(&f2)).equivalent(&e(&f1.union(&f2))));
        assert!(e(&f1)
            .intersection(&e(&f2))
            .equivalent(&e(&f1.e_f().intersection(&f2.e_f()))));
    }

    #[test]
    fn safety_union_intersection_laws() {
        // A(Φ₁) ∩ A(Φ₂) = A(Φ₁ ∩ Φ₂);
        // A(Φ₁) ∪ A(Φ₂) = A(A_f(Φ₁) ∪ A_f(Φ₂)).
        let sigma = ab();
        let f1 = phi(&sigma, "aa*b*");
        let f2 = phi(&sigma, "a*");
        assert!(a(&f1)
            .intersection(&a(&f2))
            .equivalent(&a(&f1.intersection(&f2))));
        assert!(a(&f1)
            .union(&a(&f2))
            .equivalent(&a(&f1.a_f().union(&f2.a_f()))));
    }

    #[test]
    fn recurrence_laws_including_minex() {
        // R(Φ₁) ∪ R(Φ₂) = R(Φ₁ ∪ Φ₂);
        // R(Φ₁) ∩ R(Φ₂) = R(minex(Φ₁, Φ₂)).
        let sigma = ab();
        let cases = [(".*a", ".*b"), ("(aa)+", "(aaa)+"), ("a*b", "b*a")];
        for (p1, p2) in cases {
            let f1 = phi(&sigma, p1);
            let f2 = phi(&sigma, p2);
            assert!(
                r(&f1).union(&r(&f2)).equivalent(&r(&f1.union(&f2))),
                "R union law failed on {p1},{p2}"
            );
            assert!(
                r(&f1).intersection(&r(&f2)).equivalent(&r(&f1.minex(&f2))),
                "R minex law failed on {p1},{p2}"
            );
        }
    }

    #[test]
    fn persistence_laws() {
        // P(Φ₁) ∩ P(Φ₂) = P(Φ₁ ∩ Φ₂);
        // P(Φ₁) ∪ P(Φ₂) = P(¬minex(Φ̄₁, Φ̄₂)).
        let sigma = ab();
        let f1 = phi(&sigma, ".*a");
        let f2 = phi(&sigma, ".*b");
        assert!(p(&f1)
            .intersection(&p(&f2))
            .equivalent(&p(&f1.intersection(&f2))));
        let m = f1.complement().minex(&f2.complement()).complement();
        assert!(p(&f1).union(&p(&f2)).equivalent(&p(&m)));
    }

    #[test]
    fn inclusion_equalities() {
        // A(Φ) = R(A_f(Φ)) and E(Φ) = R(E_f(Φ));
        // A(Φ) = P(A_f(Φ)) and E(Φ) = P(E_f(Φ)).
        let sigma = ab();
        for pat in ["aa*b*", ".*b", "a*b"] {
            let f = phi(&sigma, pat);
            assert!(a(&f).equivalent(&r(&f.a_f())), "A=R(A_f) failed on {pat}");
            assert!(e(&f).equivalent(&r(&f.e_f())), "E=R(E_f) failed on {pat}");
            assert!(a(&f).equivalent(&p(&f.a_f())), "A=P(A_f) failed on {pat}");
            assert!(e(&f).equivalent(&p(&f.e_f())), "E=P(E_f) failed on {pat}");
        }
    }

    #[test]
    fn pref_recovers_prefixes() {
        let sigma = ab();
        // Pref((a*b)^ω) = Σ⁺ minus nothing… all finite words extend to
        // infinitely-many-b words, so Pref = Σ⁺ = (a+b)⁺.
        let m = r(&phi(&sigma, ".*b"));
        assert!(pref(&m).equivalent(&FinitaryProperty::sigma_plus(&sigma)));
        // Pref(A(a⁺b*)) = a⁺b*.
        let s = a(&phi(&sigma, "aa*b*"));
        assert!(pref(&s).equivalent(&phi(&sigma, "aa*b*")));
    }

    #[test]
    fn safety_characterization_via_pref() {
        let sigma = ab();
        // Π safety iff Π = A(Pref(Π)): true for A(a⁺b*), false for (a*b)^ω.
        let s = a(&phi(&sigma, "aa*b*"));
        assert!(s.equivalent(&safety_closure_linguistic(&s)));
        let rec = r(&phi(&sigma, ".*b"));
        assert!(!rec.equivalent(&safety_closure_linguistic(&rec)));
        // The two safety-closure implementations agree.
        for m in [&s, &rec] {
            let direct = Analysis::new(m.clone()).safety_closure();
            assert!(safety_closure_linguistic(m).equivalent(&direct));
        }
    }

    #[test]
    fn paper_guarantee_characterization() {
        // Π guarantee iff Π = E(¬Pref(¬Π)).
        let sigma = ab();
        let g = e(&phi(&sigma, "aa*b*"));
        let reconstructed = e(&pref(&g.complement()).complement());
        assert!(g.equivalent(&reconstructed));
        // And a recurrence property fails the characterization.
        let rec = r(&phi(&sigma, ".*b"));
        let rec2 = e(&pref(&rec.complement()).complement());
        assert!(!rec.equivalent(&rec2));
    }
}

//! Topological closure, limit points, and the Borel-level predicates.
//!
//! The paper's central identity (Section 3) is `cl(Π) = A(Pref(Π))`: the
//! topological closure of an ω-regular property coincides with its safety
//! closure, so all topological notions are computable on the automaton.
//!
//! Each predicate here is the paper's name for one [`Analysis`] query;
//! build an `Analysis` directly to ask several questions of one
//! automaton with shared caches.

use hierarchy_automata::analysis::Analysis;
use hierarchy_automata::lasso::Lasso;
use hierarchy_automata::omega::OmegaAutomaton;

/// The topological closure `cl(Π) = A(Pref(Π))` of the automaton's
/// language.
pub fn closure(aut: &OmegaAutomaton) -> OmegaAutomaton {
    Analysis::new(aut.clone()).safety_closure()
}

/// The interior of the language: the largest open subset, computed as the
/// complement of the closure of the complement.
pub fn interior(aut: &OmegaAutomaton) -> OmegaAutomaton {
    closure(&aut.complement()).complement()
}

/// Whether the word is a limit point of the language: every neighbourhood
/// of `w` meets `Π`, i.e. every finite prefix of `w` is in `Pref(Π)`.
pub fn is_limit_point(aut: &OmegaAutomaton, w: &Lasso) -> bool {
    closure(aut).accepts(w)
}

/// Whether the language is closed (= a safety property, Π₁ / F).
pub fn is_closed(aut: &OmegaAutomaton) -> bool {
    Analysis::new(aut.clone()).is_safety()
}

/// Whether the language is open (= a guarantee property, Σ₁ / G).
pub fn is_open(aut: &OmegaAutomaton) -> bool {
    Analysis::new(aut.clone()).is_guarantee()
}

/// Whether the language is clopen (both closed and open).
pub fn is_clopen(aut: &OmegaAutomaton) -> bool {
    is_closed(aut) && is_open(aut)
}

/// Whether the language is G_δ — a countable intersection of open sets
/// (= a recurrence property, Π₂).
pub fn is_g_delta(aut: &OmegaAutomaton) -> bool {
    Analysis::new(aut.clone()).is_recurrence()
}

/// Whether the language is F_σ — a countable union of closed sets (= a
/// persistence property, Σ₂).
pub fn is_f_sigma(aut: &OmegaAutomaton) -> bool {
    Analysis::new(aut.clone()).is_persistence()
}

/// The paper's `G_k` construction witnessing that `(a*b)^ω` is G_δ: the
/// open set of words with at least `k` occurrences of symbols from
/// `target`, over the automaton's alphabet. The recurrence property
/// "infinitely many `target`s" is the intersection of all `G_k`.
pub fn at_least_k_occurrences(
    alphabet: &hierarchy_automata::alphabet::Alphabet,
    target: hierarchy_automata::alphabet::Symbol,
    k: usize,
) -> OmegaAutomaton {
    use hierarchy_automata::acceptance::Acceptance;
    use hierarchy_automata::StateId;
    // Count occurrences up to k, then accept everything.
    OmegaAutomaton::build(
        alphabet,
        k + 1,
        0,
        |q, s| {
            if (q as usize) < k && s == target {
                q + 1
            } else {
                q
            }
        },
        Acceptance::Inf([k].into_iter().collect()),
    )
    .with_initial(0 as StateId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::alphabet::Alphabet;
    use hierarchy_lang::{operators, witnesses, FinitaryProperty};

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    #[test]
    fn closure_of_open_example() {
        // cl(a⁺b^ω) = a⁺b^ω + a^ω — the paper's example.
        let sigma = ab();
        // a⁺b^ω = A(a⁺b*) ∩ P(a⁺b⁺).
        let lang = operators::a(&FinitaryProperty::parse(&sigma, "aa*b*").unwrap()).intersection(
            &operators::p(&FinitaryProperty::parse(&sigma, "aa*bb*").unwrap()),
        );
        let cl = closure(&lang);
        // The closure adds exactly a^ω:
        let a_omega = operators::a(&FinitaryProperty::parse(&sigma, "aa*").unwrap());
        assert!(cl.equivalent(&lang.union(&a_omega)));
        assert!(is_closed(&cl));
        assert!(!is_closed(&lang));
        // a^ω is a limit point of a⁺b^ω but not a member.
        let w = hierarchy_automata::lasso::Lasso::parse(&sigma, "", "a").unwrap();
        assert!(is_limit_point(&lang, &w));
        assert!(!lang.accepts(&w));
    }

    #[test]
    fn borel_levels_of_witnesses() {
        assert!(is_closed(&witnesses::safety()));
        assert!(!is_open(&witnesses::safety()));
        assert!(is_open(&witnesses::guarantee()));
        assert!(!is_closed(&witnesses::guarantee()));
        assert!(is_g_delta(&witnesses::recurrence()));
        assert!(!is_f_sigma(&witnesses::recurrence()));
        assert!(is_f_sigma(&witnesses::persistence()));
        assert!(!is_g_delta(&witnesses::persistence()));
        // Closed and open sets are both G_δ and F_σ.
        for w in [witnesses::safety(), witnesses::guarantee()] {
            assert!(is_g_delta(&w) && is_f_sigma(&w));
        }
        // The paper's clopen observation: E(a⁺b*) over {a,b}.
        assert!(is_clopen(&witnesses::guarantee_paper_example()));
    }

    #[test]
    fn interior_duality() {
        let rec = witnesses::recurrence();
        // int(Π) = ¬cl(¬Π).
        let int = interior(&rec);
        assert!(is_open(&int));
        assert!(int.is_subset_of(&rec));
        // The interior of (a*b)^ω is empty: every word can be extended to
        // leave the set.
        assert!(int.is_empty());
        // The interior of an open set is itself.
        let g = witnesses::guarantee();
        assert!(interior(&g).equivalent(&g));
    }

    #[test]
    fn g_delta_intersection_witness() {
        // Π = (a*b)^ω = ⋂ₖ G_k with G_k = "at least k b's" — check the
        // first few levels.
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let rec = witnesses::recurrence();
        let mut inter = OmegaAutomaton::universal(&sigma);
        for k in 1..=4 {
            let g_k = at_least_k_occurrences(&sigma, b, k);
            assert!(is_open(&g_k), "G_{k} must be open");
            assert!(rec.is_subset_of(&g_k), "Π ⊆ G_{k}");
            inter = inter.intersection(&g_k);
        }
        // Finite intersections strictly over-approximate Π…
        assert!(rec.is_subset_of(&inter));
        assert!(!inter.is_subset_of(&rec));
        // …and each finite level is still open (the paper's remark).
        assert!(is_open(&inter));
    }

    #[test]
    fn closure_is_idempotent_and_monotone() {
        let g = witnesses::guarantee();
        let r = witnesses::recurrence();
        let cg = closure(&g);
        assert!(closure(&cg).equivalent(&cg));
        // Monotone: g ⊆ r ∪ g ⇒ cl(g) ⊆ cl(r ∪ g).
        let u = r.union(&g);
        assert!(closure(&g).is_subset_of(&closure(&u)));
    }
}

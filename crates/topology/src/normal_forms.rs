//! Constructive normal forms for the compound classes.
//!
//! * [`simple_obligation_decomposition`] — the paper's `Obl₁` form
//!   `Π = A(Φ) ∪ E(Ψ)` realized canonically as
//!   `Π = cl(Π ∖ int(Π)) ∪ int(Π)`: the construction succeeds exactly when
//!   `Π` is a simple obligation property.
//! * [`reactivity_cnf`] — the paper's reactivity conjunctive normal form
//!   `Π = ⋂ᵢ (R(Φᵢ) ∪ P(Ψᵢ))`, realized on the automaton's own transition
//!   structure whenever its acceptance condition converts to Streett pairs
//!   (each CNF clause carrying at most one `Fin` atom after merging the
//!   `Inf`s).

use crate::closure;
use hierarchy_automata::acceptance::Acceptance;
use hierarchy_automata::bitset::BitSet;
use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_automata::streett::{StreettPair, StreettPairs};

#[cfg(test)]
use hierarchy_automata::classify;

/// Decomposes a *simple obligation* property as `closed ∪ open`
/// (`A(Φ) ∪ E(Ψ)`), returning `None` when the language is not `Obl₁`.
///
/// Canonical choice: the open part is the interior of `Π`, the closed part
/// is the closure of the remainder; the union equals `Π` iff `Π` admits
/// any closed/open decomposition.
pub fn simple_obligation_decomposition(
    aut: &OmegaAutomaton,
) -> Option<(OmegaAutomaton, OmegaAutomaton)> {
    let open = closure::interior(aut);
    let rest = aut.difference(&open);
    let closed = closure::closure(&rest);
    let recomposed = closed.union(&open);
    if recomposed.equivalent(aut) {
        Some((closed, open))
    } else {
        None
    }
}

/// The dual `Obl₁` form: decomposes a simple obligation property as
/// `closed ∩ open` (`A(Φ) ∩ E(Ψ)`, the disjunctive-normal-form disjunct),
/// by dualizing [`simple_obligation_decomposition`] through the
/// complement. Succeeds exactly when the language is `Obl₁`.
pub fn simple_obligation_intersection_form(
    aut: &OmegaAutomaton,
) -> Option<(OmegaAutomaton, OmegaAutomaton)> {
    let (closed_c, open_c) = simple_obligation_decomposition(&aut.complement())?;
    // ¬(C ∪ U) = ¬C ∩ ¬U with ¬C open and ¬U closed.
    Some((open_c.complement(), closed_c.complement()))
}

/// Converts a boolean acceptance condition into Streett pairs over the
/// same state space, when its conjunctive normal form allows it (each
/// clause may contain several `Inf` atoms — merged by union — but at most
/// one `Fin` atom). Returns `None` otherwise.
pub fn acceptance_to_streett(acc: &Acceptance, num_states: usize) -> Option<StreettPairs> {
    // CNF via the DNF of the negation.
    let neg_dnf = acc.negated().dnf();
    let mut pairs = Vec::new();
    for rabin in neg_dnf {
        // ¬(Fin(F) ∧ ⋀ Inf(Iⱼ)) = Inf(F) ∨ ⋁ Fin(Iⱼ): a Streett pair needs
        // at most one Fin, i.e. at most one Iⱼ.
        match rabin.infs.len() {
            0 => pairs.push(StreettPair {
                recurrent: rabin.fin.clone(),
                persistent: BitSet::new(),
            }),
            1 => pairs.push(StreettPair {
                recurrent: rabin.fin.clone(),
                persistent: rabin.infs[0].complement(num_states),
            }),
            _ => return None,
        }
    }
    Some(StreettPairs(pairs))
}

/// One clause of the reactivity conjunctive normal form: the recurrence
/// and persistence disjuncts, as automata on the original structure.
#[derive(Debug, Clone)]
pub struct ReactivityClause {
    /// `R(Φᵢ)` — the recurrence disjunct.
    pub recurrence: OmegaAutomaton,
    /// `P(Ψᵢ)` — the persistence disjunct.
    pub persistence: OmegaAutomaton,
}

/// The paper's reactivity conjunctive normal form
/// `Π = ⋂ᵢ (R(Φᵢ) ∪ P(Ψᵢ))`, with each disjunct realized on the
/// automaton's own transition structure. Returns `None` when the
/// acceptance condition does not convert to Streett pairs on this
/// structure (see [`acceptance_to_streett`]).
pub fn reactivity_cnf(aut: &OmegaAutomaton) -> Option<Vec<ReactivityClause>> {
    let pairs = acceptance_to_streett(aut.acceptance(), aut.num_states())?;
    Some(
        pairs
            .0
            .iter()
            .map(|p| ReactivityClause {
                recurrence: aut.with_acceptance(Acceptance::Inf(p.recurrent.clone())),
                persistence: aut
                    .with_acceptance(Acceptance::Fin(p.persistent.complement(aut.num_states()))),
            })
            .collect(),
    )
}

/// Checks that a CNF recomposes to the original language (used by tests
/// and the experiments; cheap relative to producing it).
pub fn cnf_recomposes(aut: &OmegaAutomaton, cnf: &[ReactivityClause]) -> bool {
    let mut acc = OmegaAutomaton::universal(aut.alphabet());
    for clause in cnf {
        acc = acc.intersection(&clause.recurrence.union(&clause.persistence));
    }
    acc.equivalent(aut)
}

/// Convenience: `Π` is a simple obligation iff the canonical decomposition
/// succeeds — cross-validated against the chain-based classifier.
pub fn is_simple_obligation(aut: &OmegaAutomaton) -> bool {
    simple_obligation_decomposition(aut).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::random;
    use hierarchy_automata::random::rng::SeedableRng;
    use hierarchy_automata::random::rng::StdRng;
    use hierarchy_lang::witnesses;

    #[test]
    fn simple_obligation_decomposes() {
        // □a ∨ ◇c over {a,b,c} is Obl₁.
        let sigma = hierarchy_automata::alphabet::Alphabet::new(["a", "b", "c"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let cc = sigma.symbol("c").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| {
                if q == 2 || s == cc {
                    2
                } else if q == 1 || s == b {
                    1
                } else {
                    0
                }
            },
            Acceptance::fin([1, 2]).or(Acceptance::inf([2])),
        );
        let (closed, open) = simple_obligation_decomposition(&m).unwrap();
        assert!(classify::classify(&closed).is_safety);
        assert!(classify::classify(&open).is_guarantee);
        assert!(closed.union(&open).equivalent(&m));
    }

    #[test]
    fn non_simple_obligations_fail() {
        // The paper's a*b^ω + Σ*cΣ^ω is Obl₂ (erratum 1 in EXPERIMENTS.md):
        assert!(simple_obligation_decomposition(&witnesses::obligation_simple()).is_none());
        // Recurrence witnesses are not obligations at all.
        assert!(simple_obligation_decomposition(&witnesses::recurrence()).is_none());
        // Safety and guarantee decompose trivially.
        assert!(simple_obligation_decomposition(&witnesses::safety()).is_some());
        assert!(simple_obligation_decomposition(&witnesses::guarantee()).is_some());
    }

    #[test]
    fn decomposition_agrees_with_index_on_random_automata() {
        let sigma = hierarchy_automata::alphabet::Alphabet::new(["a", "b"]).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..150 {
            let (aut, _) = random::random_streett(&mut rng, &sigma, 5, 2, 0.3);
            let c = classify::classify(&aut);
            let is_obl1 = c.is_obligation && c.obligation_index == Some(1);
            assert_eq!(
                is_simple_obligation(&aut),
                is_obl1,
                "decomposition and index disagree"
            );
        }
    }

    #[test]
    fn intersection_form_duals() {
        // □¬c ∧ ◇b over {a,b,c}: a genuine A ∩ E property (the DNF-level-1
        // shape). Note that the CNF- and DNF-level-1 classes are *distinct*
        // gradings (the paper keeps two symmetric hierarchies): the CNF₁
        // witness □a ∨ ◇c has no A ∩ E presentation.
        let sigma = hierarchy_automata::alphabet::Alphabet::new(["a", "b", "c"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let cc = sigma.symbol("c").unwrap();
        // States: 0 = no b yet, 1 = saw b, 2 = saw c (dead).
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| {
                if q == 2 || s == cc {
                    2
                } else if q == 1 || s == b {
                    1
                } else {
                    0
                }
            },
            Acceptance::inf([1]).and(Acceptance::fin([2])),
        );
        let (closed, open) = simple_obligation_intersection_form(&m).unwrap();
        assert!(classify::classify(&closed).is_safety);
        assert!(classify::classify(&open).is_guarantee);
        assert!(closed.intersection(&open).equivalent(&m));
        // The CNF₁ witness □a ∨ ◇c has a union form but no intersection
        // form…
        let cnf1 = m.with_acceptance(Acceptance::fin([1, 2]).or(Acceptance::inf([2])));
        assert!(simple_obligation_decomposition(&cnf1).is_some());
        assert!(simple_obligation_intersection_form(&cnf1).is_none());
        // …and dually for □¬c ∧ ◇b.
        assert!(simple_obligation_decomposition(&m).is_none());
        // Neither form exists for an Obl₂ language.
        assert!(simple_obligation_intersection_form(&witnesses::obligation_simple()).is_none());
    }

    #[test]
    fn streett_conversion_roundtrip() {
        let sigma = hierarchy_automata::alphabet::Alphabet::new(["a", "b"]).unwrap();
        let mut rng = StdRng::seed_from_u64(78);
        for _ in 0..20 {
            let (aut, pairs) = random::random_streett(&mut rng, &sigma, 5, 2, 0.3);
            let converted =
                acceptance_to_streett(aut.acceptance(), aut.num_states()).expect("streett input");
            // Same acceptance behaviour on all infinity sets.
            for bits in 1u8..32 {
                let inf: BitSet = (0..5).filter(|i| bits & (1 << i) != 0).collect();
                assert_eq!(
                    pairs.accepts_infinity_set(&inf),
                    converted.accepts_infinity_set(&inf)
                );
            }
        }
    }

    #[test]
    fn reactivity_cnf_recomposes() {
        let sigma = hierarchy_automata::alphabet::Alphabet::new(["a", "b"]).unwrap();
        let mut rng = StdRng::seed_from_u64(79);
        for _ in 0..15 {
            let (aut, _) = random::random_streett(&mut rng, &sigma, 5, 2, 0.3);
            let cnf = reactivity_cnf(&aut).expect("streett acceptance converts");
            assert!(cnf_recomposes(&aut, &cnf));
            for clause in &cnf {
                assert!(classify::classify(&clause.recurrence).is_recurrence);
                assert!(classify::classify(&clause.persistence).is_persistence);
            }
        }
        // The reactivity witnesses have their index many clauses.
        let w = witnesses::reactivity_witness(2);
        let cnf = reactivity_cnf(&w).expect("converts");
        assert_eq!(cnf.len(), 2);
        assert!(cnf_recomposes(&w, &cnf));
    }
}

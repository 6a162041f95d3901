//! The safety–liveness decomposition: every property is the intersection
//! of a safety property and a liveness property (the paper's Claim in
//! Section 2, after \[Lam83]/\[AS85]), and the two classifications are
//! orthogonal — the liveness part retains the original's hierarchy class.
//!
//! * safety part: the safety closure `Π_S = A(Pref(Π))`;
//! * liveness part: the *liveness extension*
//!   `L(Π) = Π ∪ E(¬Pref(Π))` — the words of `Π` plus every word with a
//!   prefix that cannot be extended into `Π`.

use crate::{closure, density};
use hierarchy_automata::analysis::Analysis;
use hierarchy_automata::omega::OmegaAutomaton;

/// The liveness extension `L(Π) = Π ∪ E(¬Pref(Π))` of the analyzed
/// language (the safety closure comes from the context's live set).
pub fn liveness_extension(ctx: &Analysis) -> OmegaAutomaton {
    // E(¬Pref(Π)) = words with a dead prefix = complement of the safety
    // closure.
    let escape = ctx.safety_closure().complement();
    ctx.automaton().union(&escape)
}

/// The safety–liveness decomposition `Π = Π_S ∩ Π_L` with
/// `Π_S = A(Pref(Π))` and `Π_L = L(Π)`: the live-state computation
/// behind the safety closure runs once in `ctx` and serves both parts.
pub fn decompose(ctx: &Analysis) -> (OmegaAutomaton, OmegaAutomaton) {
    (ctx.safety_closure(), liveness_extension(ctx))
}

/// Checks the decomposition theorem for `aut`: the safety part is a safety
/// property, the liveness part is dense, and their intersection is the
/// original language. Returns `false` only on an implementation bug; used
/// by tests and the `TAB-SL` experiment.
pub fn decomposition_is_valid(aut: &OmegaAutomaton) -> bool {
    let (s, l) = decompose(&Analysis::new(aut.clone()));
    closure::is_closed(&s) && density::is_dense(&l) && s.intersection(&l).equivalent(aut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::acceptance::Acceptance;
    use hierarchy_automata::alphabet::Alphabet;
    use hierarchy_automata::classify::classify;
    use hierarchy_automata::random;
    use hierarchy_automata::random::rng::SeedableRng;
    use hierarchy_automata::random::rng::StdRng;
    use hierarchy_lang::{operators, witnesses, FinitaryProperty};

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    #[test]
    fn paper_a_until_b_example() {
        // aUb = (aWb) ∩ ◇b: safety closure is aWb (= a^ω ∪ a*bΣ^ω), the
        // liveness part is ◇b itself (no dead prefixes beyond it).
        let sigma = ab();
        // aUb = a*bΣ^ω = E(a*b).
        let until = operators::e(&FinitaryProperty::parse(&sigma, "a*b").unwrap());
        let (s, l) = decompose(&Analysis::new(until.clone()));
        // Safety part = a^ω + a*bΣ^ω.
        let a_omega = operators::a(&FinitaryProperty::parse(&sigma, "aa*").unwrap());
        assert!(s.equivalent(&until.union(&a_omega)));
        // Liveness part: ◇b ∪ (words with a dead prefix — none here since
        // Pref(aUb) = Σ⁺… every finite word extends into a*bΣ^ω? A word
        // starting with b is already in; a word a…a extends with b; a word
        // containing b after a is in. So Pref = Σ⁺ and L(Π) = Π = ◇-style.
        assert!(density::is_dense(&l));
        assert!(s.intersection(&l).equivalent(&until));
    }

    #[test]
    fn decomposition_on_witnesses() {
        for m in [
            witnesses::safety(),
            witnesses::guarantee(),
            witnesses::recurrence(),
            witnesses::persistence(),
            witnesses::obligation_simple(),
            witnesses::obligation_witness(3),
            witnesses::reactivity_witness(2),
        ] {
            assert!(decomposition_is_valid(&m));
        }
    }

    #[test]
    fn decomposition_on_random_automata() {
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..30 {
            let (aut, _) = random::random_streett(&mut rng, &sigma, 6, 2, 0.3);
            assert!(decomposition_is_valid(&aut));
        }
    }

    #[test]
    fn safety_part_of_safety_is_itself() {
        let s = witnesses::safety();
        let (sp, lp) = decompose(&Analysis::new(s.clone()));
        assert!(sp.equivalent(&s));
        // The liveness part of a safety property is Π ∪ ¬Π-escapes = Σ^ω
        // only when Π is also live; in general it is Π ∪ E(¬Pref Π).
        assert!(density::is_dense(&lp));
    }

    #[test]
    fn liveness_extension_preserves_class() {
        // The paper: if Π is of class κ then L(Π) is a *live κ-property*
        // (the non-safety classes are closed under union with guarantee).
        let rec = witnesses::recurrence();
        let l = liveness_extension(&Analysis::new(rec.clone()));
        assert!(classify(&l).is_recurrence);
        assert!(density::is_dense(&l));

        let per = witnesses::persistence();
        let l = liveness_extension(&Analysis::new(per.clone()));
        assert!(classify(&l).is_persistence);

        let gua = witnesses::guarantee();
        let l = liveness_extension(&Analysis::new(gua.clone()));
        assert!(classify(&l).is_guarantee);

        let obl = witnesses::obligation_simple();
        let l = liveness_extension(&Analysis::new(obl.clone()));
        assert!(classify(&l).is_obligation);
    }

    #[test]
    fn trivial_properties() {
        let sigma = ab();
        let full = OmegaAutomaton::universal(&sigma);
        assert!(decomposition_is_valid(&full));
        // The empty property: safety part is ∅ (closed), liveness part is
        // Σ^ω (every prefix is dead).
        let empty = OmegaAutomaton::empty(&sigma);
        let (s, l) = decompose(&Analysis::new(empty.clone()));
        assert!(s.is_empty());
        assert!(l.is_universal());
        assert!(decomposition_is_valid(&empty));
    }

    #[test]
    fn safety_and_liveness_overlap_only_trivially() {
        // A property that is both safety and liveness is Σ^ω: dense +
        // closed = everything.
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            Acceptance::inf([0]).or(Acceptance::fin([0, 1])),
        );
        if classify(&m).is_safety && density::is_dense(&m) {
            assert!(m.is_universal());
        }
        // And the canonical pair: □a closed but not dense; ◇b dense but
        // not closed.
        assert!(!density::is_dense(&witnesses::safety()));
        assert!(!classify(&witnesses::guarantee()).is_safety);
    }
}

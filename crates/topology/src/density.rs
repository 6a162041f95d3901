//! Density (= liveness) and uniform liveness.
//!
//! Following \[AS85] as quoted in the paper, a property is a *liveness*
//! property iff `Pref(Π) = Σ⁺` — every finite word extends to a word of
//! `Π` — which is precisely topological *density* of `Π` in `Σ^ω`. For a
//! complete deterministic automaton this holds iff every reachable state
//! has a non-empty residual language.
//!
//! A *uniform liveness* property additionally has a single ω-word `σ′`
//! with `Σ⁺·σ′ ⊆ Π`.

use hierarchy_automata::analysis::Analysis;
use hierarchy_automata::lasso::Lasso;
use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_automata::StateId;

/// Whether the language is dense in `Σ^ω` (equivalently, a liveness
/// property): [`Analysis::is_dense`].
pub fn is_dense(aut: &OmegaAutomaton) -> bool {
    Analysis::new(aut.clone()).is_dense()
}

/// Whether the language is a liveness property (alias of [`is_dense`],
/// matching the paper's terminology).
pub fn is_liveness(aut: &OmegaAutomaton) -> bool {
    is_dense(aut)
}

/// Whether the language is a *uniform* liveness property: some single
/// ω-word `σ′` satisfies `σ·σ′ ∈ Π` for every non-empty finite `σ`.
/// Returns a witness lasso if so.
///
/// Decided by intersecting the residual languages of all states reachable
/// by at least one symbol; the intersection is ω-regular, and it is
/// non-empty iff a (then ultimately periodic) uniform extension exists.
pub fn uniform_liveness_witness(aut: &OmegaAutomaton) -> Option<Lasso> {
    // States reachable by at least one symbol.
    let mut entry_states: Vec<StateId> = Vec::new();
    let reachable = aut.reachable_states();
    for q in reachable.iter() {
        for sym in aut.alphabet().symbols() {
            let t = aut.step(q as StateId, sym);
            if !entry_states.contains(&t) {
                entry_states.push(t);
            }
        }
    }
    let mut inter: Option<OmegaAutomaton> = None;
    for &q in &entry_states {
        let from_q = aut.with_initial(q);
        inter = Some(match inter {
            None => from_q,
            Some(acc) => acc.intersection(&from_q),
        });
    }
    inter.and_then(|m| m.accepted_lasso())
}

/// Whether the language is a uniform liveness property.
pub fn is_uniform_liveness(aut: &OmegaAutomaton) -> bool {
    uniform_liveness_witness(aut).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::acceptance::Acceptance;
    use hierarchy_automata::alphabet::Alphabet;
    use hierarchy_lang::witnesses;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    #[test]
    fn classic_liveness_examples() {
        // ◇b and □◇b and ◇□b are dense; □a is not.
        assert!(is_dense(&witnesses::guarantee()));
        assert!(is_dense(&witnesses::recurrence()));
        assert!(is_dense(&witnesses::persistence()));
        assert!(!is_dense(&witnesses::safety()));
        // Σ^ω is dense, ∅ is not.
        let sigma = ab();
        assert!(is_dense(&OmegaAutomaton::universal(&sigma)));
        assert!(!is_dense(&OmegaAutomaton::empty(&sigma)));
    }

    #[test]
    fn uniform_liveness_of_persistence() {
        // Σ*b^ω: the uniform extension σ′ = b^ω works after any prefix.
        let m = witnesses::persistence();
        let w = uniform_liveness_witness(&m).unwrap();
        let sigma = ab();
        // Verify: for several prefixes σ, σ·σ′ ∈ Π.
        for prefix in ["a", "b", "ab", "bba"] {
            let mut spoke: Vec<_> = prefix
                .chars()
                .map(|c| sigma.symbol(&c.to_string()).unwrap())
                .collect();
            spoke.extend_from_slice(w.spoke());
            let extended = Lasso::new(spoke, w.cycle().to_vec());
            assert!(m.accepts(&extended), "prefix {prefix}");
        }
    }

    #[test]
    fn paper_nonuniform_liveness_example_is_actually_uniform() {
        // The paper offers a·Σ*·aa·Σ^ω + b·Σ*·bb·Σ^ω ("the first state
        // appears sometimes later, twice in succession") as a liveness
        // property that is not uniform. In fact σ′ = aabb^ω *is* a uniform
        // extension — any σ starts with a or b and σ′ supplies both the aa
        // and the bb — and the checker finds a witness. (See
        // EXPERIMENTS.md; the guarantee-style requirement is satisfiable by
        // concatenating the two finite obligations.)
        let sigma = ab();
        let a = sigma.symbol("a").unwrap();
        // States: 0 initial; 1/2/3 track the aa-pair after a first a;
        // 4/5/6 track the bb-pair after a first b; 3 and 6 accept.
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
        assert!(is_dense(&m), "the example is a liveness property");
        let w = uniform_liveness_witness(&m).expect("uniform witness exists");
        // Sanity: prepend both kinds of prefix and check membership.
        for prefix in ["a", "b", "ab", "ba"] {
            let mut spoke: Vec<_> = prefix
                .chars()
                .map(|c| sigma.symbol(&c.to_string()).unwrap())
                .collect();
            spoke.extend_from_slice(w.spoke());
            let extended = Lasso::new(spoke, w.cycle().to_vec());
            assert!(m.accepts(&extended), "prefix {prefix}");
        }
    }

    #[test]
    fn corrected_nonuniform_liveness_example() {
        // a·Σ*·a^ω + b·Σ*·b^ω: "eventually only the first state" — the
        // required tails are contradictory, so no uniform extension exists.
        let sigma = ab();
        let a = sigma.symbol("a").unwrap();
        // States: 0 initial; 1 = first was a, last was a; 2 = first a,
        // last b; 3 = first b, last b; 4 = first b, last a.
        let m = OmegaAutomaton::build(
            &sigma,
            5,
            0,
            move |q, s| match (q, s == a) {
                (0, true) => 1,
                (0, false) => 3,
                (1 | 2, true) => 1,
                (1 | 2, false) => 2,
                (3 | 4, false) => 3,
                (3 | 4, true) => 4,
                _ => unreachable!(),
            },
            // Eventually always in "last symbol = first symbol":
            Acceptance::fin([2, 4]),
        );
        assert!(is_dense(&m), "liveness");
        assert!(!is_uniform_liveness(&m), "tails are contradictory");
    }

    #[test]
    fn uniform_liveness_witness_is_accepted_everywhere() {
        // □◇b is uniformly live with σ′ = b^ω.
        let m = witnesses::recurrence();
        assert!(is_uniform_liveness(&m));
        // □a is not even dense, hence not uniformly live.
        assert!(!is_uniform_liveness(&witnesses::safety()));
    }
}

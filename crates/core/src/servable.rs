//! The [`Servable`] trait: what the classification daemon needs from an
//! artifact — a structural content hash.
//!
//! The daemon (`crates/serve`) keys its artifact store by
//! [`ArtifactHash`]; anything that can compute one can be ingested,
//! deduplicated, and queried. Automata and properties hash through the
//! canonical quotient form
//! ([`canonical::structural_hash`](hierarchy_automata::canonical)), so
//! α-equivalent submissions (state renamings, unreachable padding,
//! bisimilar blow-ups) collide on purpose; programs hash their exact
//! structural encoding ([`Program::structural_encoding`]).

use crate::Property;
use hierarchy_automata::canonical::{self, ArtifactHash};
use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_fts::absint::Program;

/// An artifact the classification service can content-address.
pub trait Servable {
    /// The structural content hash (see the module docs for what
    /// collides intentionally per kind).
    fn content_hash(&self) -> ArtifactHash;
}

impl Servable for OmegaAutomaton {
    fn content_hash(&self) -> ArtifactHash {
        canonical::structural_hash(self)
    }
}

impl Servable for Property {
    /// Reads the canonical hash memoized in the property's
    /// [`Analysis`](hierarchy_automata::analysis::Analysis) context —
    /// neither the partition refinement nor the hash is re-run. A
    /// `Property` and the bare automaton it wraps hash identically (both
    /// are automaton-kind artifacts to the service; formulas and regexes
    /// are addressed by the language they denote, not their syntax).
    fn content_hash(&self) -> ArtifactHash {
        self.analysis().canonical_hash()
    }
}

impl Servable for Program {
    fn content_hash(&self) -> ArtifactHash {
        canonical::hash_bytes("program", &self.structural_encoding())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::alphabet::Alphabet;
    use hierarchy_fts::absint;

    #[test]
    fn property_and_automaton_hashes_agree() {
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        let p = Property::parse(&sigma, "G (p -> F q)").unwrap();
        assert_eq!(p.content_hash(), p.automaton().content_hash());
    }

    /// Syntactically different formulas denoting the same language are
    /// the same artifact.
    #[test]
    fn alpha_equivalent_formulas_collide() {
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        let a = Property::parse(&sigma, "G (p -> F q)").unwrap();
        let b = Property::parse(&sigma, "G (F q | !p)").unwrap();
        assert!(a.equivalent(&b), "test premise");
        assert_eq!(a.content_hash(), b.content_hash());
        let c = Property::parse(&sigma, "F G q").unwrap();
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn program_hashes_by_structure() {
        let pete = absint::peterson_abs();
        assert_eq!(pete.content_hash(), absint::peterson_abs().content_hash());
        assert_ne!(
            pete.content_hash(),
            absint::mux_sem_abs(hierarchy_fts::system::Fairness::Strong).content_hash()
        );
        // Program hashes live in a different namespace from automata.
        let sigma = Alphabet::of_propositions(["p"]).unwrap();
        let aut = hierarchy_automata::omega::OmegaAutomaton::universal(&sigma);
        assert_ne!(pete.content_hash(), aut.content_hash());
    }
}

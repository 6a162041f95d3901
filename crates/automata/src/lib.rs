#![warn(missing_docs)]

//! Finite- and ω-word automata substrate for the Manna–Pnueli temporal-property
//! hierarchy (*A Hierarchy of Temporal Properties*, PODC 1990).
//!
//! This crate provides everything the paper's **automata view** (Section 5)
//! needs, built from scratch:
//!
//! * [`dfa::Dfa`] / [`nfa::Nfa`] — classical automata over finite words, with
//!   subset construction, minimization, boolean operations, inclusion and
//!   equivalence. Finite-word languages model the paper's *finitary
//!   properties* `Φ ⊆ Σ⁺`. A DFA is the same deterministic table as an
//!   ω-automaton with another acceptance notion, so it shares the
//!   reachability walk, the reachable-product builder, the path search
//!   and the Hopcroft minimizer of the ω side.
//! * [`omega::OmegaAutomaton`] — complete **deterministic ω-automata** whose
//!   acceptance condition is an arbitrary boolean combination of
//!   `Inf(S)`/`Fin(S)` atoms ([`acceptance::Acceptance`], Emerson–Lei style).
//!   Streett, Rabin, Büchi, co-Büchi and weak automata are all special cases
//!   ([`streett`]). The algebra is closed under products and acceptance
//!   negation, so every boolean operation on deterministic properties is
//!   exact.
//! * [`classify`] — the exact decision procedures of the paper's Section 5.1:
//!   given a deterministic ω-automaton, decide whether its language is a
//!   safety, guarantee, obligation, recurrence, persistence or reactivity
//!   property, and compute the exact obligation degree and reactivity index
//!   (Wagner's alternating-chain analysis, read off the alternating cycle
//!   decomposition that the accepting-cycle kernel of [`emptiness`]
//!   computes).
//! * [`analysis::Analysis`] — a per-automaton memoized context that shares
//!   reachability, restricted SCC decompositions, the condensation DAG,
//!   the live sets and inclusion verdicts across all of the above, so
//!   a full classification shares every SCC pass with emptiness and
//!   liveness.
//! * [`inclusion`] — direct polynomial-time inclusion/equivalence for
//!   deterministic acceptors (Angluin–Fisman): a min-even parity view
//!   with a product-SCC fast path, whole-pair Streett refinement for
//!   general conditions, and counterexample-lasso extraction — the
//!   default oracle behind `is_subset_of`/`equivalent`, differential
//!   against the complement construction.
//! * [`par`] — a zero-dependency scoped-thread worker pool that fans a
//!   batch of independent automata (the suite audit, the daemon's batch
//!   endpoints, `spec-lint`'s artifacts) out across as many workers as
//!   its caller asks for; the `Analysis` caches are thread-shared, so
//!   workers on one context populate one memo table.
//! * [`paper_checks`] — the paper's own *structural* checks for Streett
//!   automata (closure of the bad region, etc.), kept separate so they can be
//!   cross-validated against the exact semantic procedures.
//! * [`counterfree`] — the counter-freedom test (transition-monoid
//!   aperiodicity) that delimits temporal-logic expressibility (\[MP71],
//!   \[Zuc86]).
//! * [`lasso::Lasso`] — ultimately-periodic words `u·vω`, the computable
//!   stand-in for arbitrary ω-words used throughout the test-suites.
//!
//! # Quick example
//!
//! ```
//! use hierarchy_automata::prelude::*;
//!
//! // Σ = {a, b}; the ω-language (Σ*b)^ω = "infinitely many b" as a
//! // deterministic Büchi automaton.
//! let sigma = Alphabet::new(["a", "b"]).unwrap();
//! let b = sigma.symbol("b").unwrap();
//! let inf_b = OmegaAutomaton::build(&sigma, 2, 0, |_state, sym| {
//!     if sym == b { 1 } else { 0 }
//! }, Acceptance::inf([1]));
//!
//! let verdict = classify::classify(&inf_b);
//! assert!(verdict.is_recurrence && !verdict.is_persistence && !verdict.is_safety);
//! ```

pub mod acceptance;
pub mod alphabet;
pub mod analysis;
pub mod bitset;
pub mod canonical;
pub mod classify;
pub mod counterfree;
pub mod dfa;
pub mod emptiness;
pub mod flat;
pub mod hoa;
pub mod inclusion;
pub mod lasso;
pub mod minimize;
pub mod nfa;
pub mod omega;
pub mod paper_checks;
pub mod par;
pub mod random;
pub mod scc;
pub mod streett;

mod error;

pub use error::AutomatonError;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::acceptance::Acceptance;
    pub use crate::alphabet::{Alphabet, Symbol, SymbolSet};
    pub use crate::analysis::{Analysis, AnalysisStats};
    pub use crate::bitset::BitSet;
    pub use crate::canonical::{hash_bytes, structural_hash, ArtifactHash};
    pub use crate::classify;
    pub use crate::dfa::Dfa;
    pub use crate::flat::FlatGraph;
    pub use crate::inclusion::ParityView;
    pub use crate::lasso::Lasso;
    pub use crate::minimize::{minimize, Minimization};
    pub use crate::nfa::Nfa;
    pub use crate::omega::OmegaAutomaton;
    pub use crate::streett::{StreettPair, StreettPairs};
    pub use crate::AutomatonError;
}

/// Identifier of an automaton state (an index into the state vector).
pub type StateId = u32;

//! Error type for automaton construction and combination.

use std::fmt;

/// Errors produced when constructing or combining automata.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AutomatonError {
    /// An alphabet with more than [`crate::alphabet::Alphabet::MAX_SYMBOLS`]
    /// symbols (or with none at all) was requested.
    AlphabetSize {
        /// The requested number of symbols.
        requested: usize,
    },
    /// A valuation alphabet `2^AP` over no propositions, or over more
    /// than 6 (see [`crate::alphabet::Alphabet::of_propositions`]).
    PropositionCount {
        /// The number of propositions given.
        requested: usize,
    },
    /// Two symbols in an alphabet share the same name.
    DuplicateSymbol {
        /// The offending name.
        name: String,
    },
    /// An operation combined automata over different alphabets.
    AlphabetMismatch,
    /// A state index was out of range for the automaton.
    InvalidState {
        /// The offending state index.
        state: u32,
        /// The number of states in the automaton.
        states: usize,
    },
    /// A deterministic automaton was required but the transition structure is
    /// incomplete or nondeterministic.
    NotDeterministic,
    /// An HOA document could not be parsed (see [`crate::hoa::hoa_to_omega`]).
    HoaParse {
        /// What went wrong, with the offending line when available.
        message: String,
    },
}

impl fmt::Display for AutomatonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutomatonError::AlphabetSize { requested } => write!(
                f,
                "alphabet must have between 1 and 64 symbols, got {requested}"
            ),
            AutomatonError::PropositionCount { requested } => write!(
                f,
                "a valuation alphabet needs between 1 and 6 propositions, got {requested}"
            ),
            AutomatonError::DuplicateSymbol { name } => {
                write!(f, "duplicate symbol name {name:?} in alphabet")
            }
            AutomatonError::AlphabetMismatch => {
                write!(f, "operation combined automata over different alphabets")
            }
            AutomatonError::InvalidState { state, states } => {
                write!(f, "state {state} out of range (automaton has {states})")
            }
            AutomatonError::NotDeterministic => {
                write!(f, "a complete deterministic automaton is required")
            }
            AutomatonError::HoaParse { message } => {
                write!(f, "HOA parse error: {message}")
            }
        }
    }
}

impl std::error::Error for AutomatonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(AutomatonError::AlphabetSize { requested: 65 }
            .to_string()
            .contains("65"));
        assert!(AutomatonError::DuplicateSymbol { name: "a".into() }
            .to_string()
            .contains("\"a\""));
        assert!(AutomatonError::AlphabetMismatch
            .to_string()
            .contains("alphabets"));
    }
}

//! Complete deterministic finite automata over finite words.
//!
//! Finitary properties `Φ ⊆ Σ⁺` — the building blocks of the paper's
//! linguistic view — are represented by DFAs. The API provides the boolean
//! algebra, minimization, and the decision procedures (emptiness, inclusion,
//! equivalence) that the hierarchy constructions rely on.
//!
//! A DFA is the deterministic transition table of an ω-automaton with
//! another acceptance notion, so it owns no walk of its own: reachability
//! is the ω side's forward walk, products come from the reachable-product
//! builder of [`crate::inclusion`], shortest words from
//! [`crate::emptiness::shortest_path`], and minimization from
//! [`crate::minimize`] on the `Inf(F)` view.

use crate::acceptance::Acceptance;
use crate::alphabet::{Alphabet, Symbol};
use crate::bitset::BitSet;
use crate::emptiness::shortest_path;
use crate::inclusion::Product;
use crate::minimize::minimize;
use crate::omega::{forward_closure, OmegaAutomaton};
use crate::{AutomatonError, StateId};

/// A complete deterministic finite automaton.
///
/// Transitions are total: every state has exactly one successor per symbol.
/// States are numbered `0..num_states()`.
///
/// # Examples
///
/// ```
/// use hierarchy_automata::prelude::*;
///
/// // Words over {a,b} that end in `b`.
/// let sigma = Alphabet::new(["a", "b"]).unwrap();
/// let b = sigma.symbol("b").unwrap();
/// let ends_b = Dfa::build(&sigma, 2, 0, |_, sym| if sym == b { 1 } else { 0 }, [1]);
/// assert!(ends_b.accepts([Symbol(0), Symbol(1)].iter().copied()));
/// assert!(!ends_b.accepts([Symbol(1), Symbol(0)].iter().copied()));
/// ```
#[derive(Debug, Clone)]
pub struct Dfa {
    alphabet: Alphabet,
    num_states: usize,
    initial: StateId,
    accepting: BitSet,
    /// Flattened transition table: `delta[state * |Σ| + symbol]`.
    delta: Vec<StateId>,
}

impl Dfa {
    /// Builds a DFA from a transition function.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0`, if `initial` or any transition target is
    /// out of range.
    pub fn build<F, I>(
        alphabet: &Alphabet,
        num_states: usize,
        initial: StateId,
        mut delta: F,
        accepting: I,
    ) -> Self
    where
        F: FnMut(StateId, Symbol) -> StateId,
        I: IntoIterator<Item = StateId>,
    {
        assert!(num_states > 0, "a DFA needs at least one state");
        assert!(
            (initial as usize) < num_states,
            "initial state out of range"
        );
        let k = alphabet.len();
        let mut table = Vec::with_capacity(num_states * k);
        for q in 0..num_states {
            for sym in alphabet.symbols() {
                let t = delta(q as StateId, sym);
                assert!(
                    (t as usize) < num_states,
                    "transition target {t} out of range"
                );
                table.push(t);
            }
        }
        let accepting: BitSet = accepting.into_iter().map(|s| s as usize).collect();
        debug_assert!(
            accepting.iter().all(|q| q < num_states),
            "accepting set must be a subset of the state set"
        );
        Dfa {
            alphabet: alphabet.clone(),
            num_states,
            initial,
            accepting,
            delta: table,
        }
    }

    /// Builds a DFA from explicit parts, validating the transition table.
    ///
    /// `delta` must have length `num_states * alphabet.len()`, laid out row
    /// by row (`delta[q * |Σ| + a]`).
    ///
    /// # Errors
    ///
    /// Returns [`AutomatonError::InvalidState`] for out-of-range targets or
    /// initial state, and [`AutomatonError::NotDeterministic`] for a table of
    /// the wrong size.
    pub fn from_parts(
        alphabet: &Alphabet,
        num_states: usize,
        initial: StateId,
        delta: Vec<StateId>,
        accepting: BitSet,
    ) -> Result<Self, AutomatonError> {
        if num_states == 0 || (initial as usize) >= num_states {
            return Err(AutomatonError::InvalidState {
                state: initial,
                states: num_states,
            });
        }
        if delta.len() != num_states * alphabet.len() {
            return Err(AutomatonError::NotDeterministic);
        }
        if let Some(&bad) = delta.iter().find(|&&t| (t as usize) >= num_states) {
            return Err(AutomatonError::InvalidState {
                state: bad,
                states: num_states,
            });
        }
        debug_assert!(
            accepting.iter().all(|q| q < num_states),
            "accepting set must be a subset of the state set"
        );
        Ok(Dfa {
            alphabet: alphabet.clone(),
            num_states,
            initial,
            accepting,
            delta,
        })
    }

    /// The DFA accepting the empty language over `alphabet`.
    pub fn empty(alphabet: &Alphabet) -> Self {
        Dfa::build(alphabet, 1, 0, |_, _| 0, [])
    }

    /// The DFA accepting all of `Σ*` (including the empty word).
    pub fn sigma_star(alphabet: &Alphabet) -> Self {
        Dfa::build(alphabet, 1, 0, |_, _| 0, [0])
    }

    /// The alphabet of the automaton.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The set of accepting states.
    pub fn accepting(&self) -> &BitSet {
        &self.accepting
    }

    /// Whether `q` is an accepting state.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting.contains(q as usize)
    }

    /// The successor of `q` under `sym`.
    pub fn step(&self, q: StateId, sym: Symbol) -> StateId {
        self.delta[q as usize * self.alphabet.len() + sym.index()]
    }

    /// Runs the automaton on a word from the initial state, returning the
    /// final state.
    pub fn run<I: IntoIterator<Item = Symbol>>(&self, word: I) -> StateId {
        self.run_from(self.initial, word)
    }

    /// Runs the automaton on a word from an arbitrary state.
    pub fn run_from<I: IntoIterator<Item = Symbol>>(&self, from: StateId, word: I) -> StateId {
        word.into_iter().fold(from, |q, sym| self.step(q, sym))
    }

    /// Whether the automaton accepts the word.
    pub fn accepts<I: IntoIterator<Item = Symbol>>(&self, word: I) -> bool {
        self.is_accepting(self.run(word))
    }

    /// States reachable from the initial state.
    pub fn reachable_states(&self) -> BitSet {
        let start = BitSet::from_iter([self.initial as usize]);
        forward_closure(&self.delta, self.alphabet.len(), start)
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        self.reachable_states().is_disjoint(&self.accepting)
    }

    /// Whether the language is all of `Σ*`.
    pub fn is_universal(&self) -> bool {
        self.reachable_states().is_subset(&self.accepting)
    }

    /// A shortest accepted word, if the language is non-empty (the
    /// labelled breadth-first search of [`shortest_path`], which tries
    /// the symbols in order).
    pub fn shortest_accepted(&self) -> Option<Vec<Symbol>> {
        let (_, steps) = shortest_path(
            self.num_states,
            [self.initial],
            &self.accepting,
            None,
            |q, f| {
                for sym in self.alphabet.symbols() {
                    f(sym, self.step(q, sym));
                }
            },
        )?;
        Some(steps.into_iter().map(|(sym, _)| sym).collect())
    }

    /// The complement automaton (same structure, accepting set flipped).
    pub fn complement(&self) -> Dfa {
        let mut c = self.clone();
        c.accepting = self.accepting.complement(self.num_states);
        c
    }

    /// Product construction with a boolean combination of the two acceptance
    /// conditions. Only reachable product states are kept.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn product_with<F: Fn(bool, bool) -> bool>(&self, other: &Dfa, combine: F) -> Dfa {
        assert_eq!(
            self.alphabet, other.alphabet,
            "product requires identical alphabets"
        );
        let product = Product::build(
            self.alphabet.len(),
            (self.initial, other.initial),
            |(p, q), sym| (self.step(p, sym), other.step(q, sym)),
        );
        let accepting = product
            .pairs
            .iter()
            .enumerate()
            .filter(|(_, &(p, q))| combine(self.is_accepting(p), other.is_accepting(q)))
            .map(|(i, _)| i)
            .collect();
        Dfa {
            alphabet: self.alphabet.clone(),
            num_states: product.num_states(),
            initial: 0,
            accepting,
            delta: product.delta,
        }
    }

    /// Intersection of the two languages.
    pub fn intersection(&self, other: &Dfa) -> Dfa {
        self.product_with(other, |a, b| a && b)
    }

    /// Union of the two languages.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product_with(other, |a, b| a || b)
    }

    /// Difference `L(self) \ L(other)`.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product_with(other, |a, b| a && !b)
    }

    /// Whether `L(self) ⊆ L(other)`.
    pub fn is_subset_of(&self, other: &Dfa) -> bool {
        self.difference(other).is_empty()
    }

    /// Whether the two automata accept the same language.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.product_with(other, |a, b| a != b).is_empty()
    }

    /// A word accepted by exactly one of the two automata, if the languages
    /// differ.
    pub fn distinguishing_word(&self, other: &Dfa) -> Option<Vec<Symbol>> {
        self.product_with(other, |a, b| a != b).shortest_accepted()
    }

    /// The minimal DFA for the same language: the Hopcroft refinement of
    /// [`minimize`] on the DFA read as the ω-automaton `Inf(F)`, whose
    /// seed partition is accepting versus non-accepting, so its quotient
    /// is the Myhill–Nerode one. Unreachable states are dropped, and
    /// states are numbered in the quotient's canonical BFS order.
    pub fn minimize(&self) -> Dfa {
        let aut = OmegaAutomaton::build(
            &self.alphabet,
            self.num_states,
            self.initial,
            |q, sym| self.step(q, sym),
            Acceptance::Inf(self.accepting.clone()),
        );
        let min = minimize(&aut);
        let accepting = (0..min.classes.len())
            .filter(|&c| self.is_accepting(min.classes[c][0]))
            .collect();
        Dfa {
            alphabet: self.alphabet.clone(),
            num_states: min.quotient.num_states(),
            initial: min.quotient.initial(),
            accepting,
            delta: min.quotient.table().to_vec(),
        }
    }

    /// The left quotient automaton: same automaton started from `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn with_initial(&self, q: StateId) -> Dfa {
        assert!((q as usize) < self.num_states, "state out of range");
        let mut d = self.clone();
        d.initial = q;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Words over {a,b} containing at least one `b`.
    fn contains_b(sigma: &Alphabet) -> Dfa {
        let b = sigma.symbol("b").unwrap();
        Dfa::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            [1],
        )
    }

    /// Words of even length.
    fn even_length(sigma: &Alphabet) -> Dfa {
        Dfa::build(sigma, 2, 0, |q, _| 1 - q, [0])
    }

    fn word(sigma: &Alphabet, s: &str) -> Vec<Symbol> {
        s.chars()
            .map(|c| sigma.symbol(&c.to_string()).unwrap())
            .collect()
    }

    #[test]
    fn accepts_and_run() {
        let sigma = ab();
        let d = contains_b(&sigma);
        assert!(d.accepts(word(&sigma, "aab")));
        assert!(d.accepts(word(&sigma, "baa")));
        assert!(!d.accepts(word(&sigma, "aaa")));
        assert!(!d.accepts(word(&sigma, "")));
        assert_eq!(d.run(word(&sigma, "ab")), 1);
    }

    #[test]
    fn boolean_algebra() {
        let sigma = ab();
        let d1 = contains_b(&sigma);
        let d2 = even_length(&sigma);
        let both = d1.intersection(&d2);
        assert!(both.accepts(word(&sigma, "ab")));
        assert!(!both.accepts(word(&sigma, "b")));
        assert!(!both.accepts(word(&sigma, "aa")));
        let either = d1.union(&d2);
        assert!(either.accepts(word(&sigma, "aa")));
        assert!(either.accepts(word(&sigma, "b")));
        assert!(!either.accepts(word(&sigma, "a")));
        let diff = d1.difference(&d2);
        assert!(diff.accepts(word(&sigma, "b")));
        assert!(!diff.accepts(word(&sigma, "ab")));
        let comp = d1.complement();
        assert!(comp.accepts(word(&sigma, "aaa")));
        assert!(!comp.accepts(word(&sigma, "ab")));
    }

    #[test]
    fn emptiness_universality() {
        let sigma = ab();
        assert!(Dfa::empty(&sigma).is_empty());
        assert!(Dfa::sigma_star(&sigma).is_universal());
        let d = contains_b(&sigma);
        assert!(!d.is_empty());
        assert!(!d.is_universal());
        assert!(d.union(&d.complement()).is_universal());
        assert!(d.intersection(&d.complement()).is_empty());
    }

    #[test]
    fn inclusion_equivalence() {
        let sigma = ab();
        let d = contains_b(&sigma);
        let e = even_length(&sigma);
        assert!(d.intersection(&e).is_subset_of(&d));
        assert!(!d.is_subset_of(&e));
        assert!(d.equivalent(&d.minimize()));
        assert!(!d.equivalent(&e));
        let w = d.distinguishing_word(&e).unwrap();
        assert_ne!(d.accepts(w.iter().copied()), e.accepts(w.iter().copied()));
        assert_eq!(d.distinguishing_word(&d.clone()), None);
    }

    #[test]
    fn shortest_accepted_words() {
        let sigma = ab();
        let d = contains_b(&sigma);
        assert_eq!(d.shortest_accepted().unwrap(), word(&sigma, "b"));
        assert_eq!(Dfa::empty(&sigma).shortest_accepted(), None);
        assert_eq!(Dfa::sigma_star(&sigma).shortest_accepted().unwrap(), vec![]);
    }

    #[test]
    fn minimize_collapses() {
        let sigma = ab();
        // A 4-state automaton for "contains b" with redundant states.
        let b = sigma.symbol("b").unwrap();
        let d = Dfa::build(
            &sigma,
            4,
            0,
            |q, s| match (q, s == b) {
                (0, false) => 1,
                (0, true) => 2,
                (1, false) => 0,
                (1, true) => 3,
                (2, _) => 2,
                (3, _) => 3,
                _ => unreachable!(),
            },
            [2, 3],
        );
        let m = d.minimize();
        assert_eq!(m.num_states(), 2);
        assert!(m.equivalent(&contains_b(&sigma)));
    }

    #[test]
    fn minimize_removes_unreachable() {
        let sigma = ab();
        // State 2 is unreachable.
        let d = Dfa::build(&sigma, 3, 0, |q, _| if q == 2 { 2 } else { q }, [2]);
        let m = d.minimize();
        assert_eq!(m.num_states(), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn from_parts_validates() {
        let sigma = ab();
        assert!(Dfa::from_parts(&sigma, 1, 0, vec![0, 0], BitSet::new()).is_ok());
        assert!(matches!(
            Dfa::from_parts(&sigma, 1, 0, vec![0], BitSet::new()),
            Err(AutomatonError::NotDeterministic)
        ));
        assert!(matches!(
            Dfa::from_parts(&sigma, 1, 0, vec![0, 5], BitSet::new()),
            Err(AutomatonError::InvalidState { state: 5, .. })
        ));
        assert!(matches!(
            Dfa::from_parts(&sigma, 1, 3, vec![0, 0], BitSet::new()),
            Err(AutomatonError::InvalidState { state: 3, .. })
        ));
    }

    #[test]
    fn with_initial_changes_language() {
        let sigma = ab();
        let d = contains_b(&sigma);
        let from_acc = d.with_initial(1);
        assert!(from_acc.accepts(word(&sigma, "aaa")));
        assert!(from_acc.is_universal());
    }
}

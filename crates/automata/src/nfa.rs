//! Nondeterministic finite automata with ε-transitions, and the subset
//! construction to [`Dfa`].
//!
//! NFAs are the natural target of the Thompson construction from regular
//! expressions (in the `hierarchy-lang` crate); everything downstream of the
//! hierarchy works on the determinized form.

use crate::alphabet::{Alphabet, Symbol};
use crate::bitset::BitSet;
use crate::dfa::Dfa;
use crate::StateId;
use std::collections::{HashMap, VecDeque};

/// A nondeterministic finite automaton with ε-transitions.
///
/// # Examples
///
/// ```
/// use hierarchy_automata::prelude::*;
///
/// let sigma = Alphabet::new(["a", "b"]).unwrap();
/// let a = sigma.symbol("a").unwrap();
/// let mut n = Nfa::new(&sigma);
/// let s0 = n.add_state();
/// let s1 = n.add_state();
/// n.add_transition(s0, a, s1);
/// n.set_initial(s0);
/// n.add_accepting(s1);
/// let d = n.determinize();
/// assert!(d.accepts([a]));
/// assert!(!d.accepts([]));
/// ```
#[derive(Debug, Clone)]
pub struct Nfa {
    alphabet: Alphabet,
    /// `transitions[q]` maps each symbol to successor states; index
    /// `alphabet.len()` is used for ε.
    transitions: Vec<Vec<Vec<StateId>>>,
    initial: Vec<StateId>,
    accepting: BitSet,
}

impl Nfa {
    /// Creates an empty NFA (no states) over the alphabet.
    pub fn new(alphabet: &Alphabet) -> Self {
        Nfa {
            alphabet: alphabet.clone(),
            transitions: Vec::new(),
            initial: Vec::new(),
            accepting: BitSet::new(),
        }
    }

    /// The alphabet of the automaton.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.transitions
            .push(vec![Vec::new(); self.alphabet.len() + 1]);
        (self.transitions.len() - 1) as StateId
    }

    /// Adds a transition `from --sym--> to`.
    ///
    /// # Panics
    ///
    /// Panics if either state is out of range.
    pub fn add_transition(&mut self, from: StateId, sym: Symbol, to: StateId) {
        assert!((to as usize) < self.num_states(), "state out of range");
        debug_assert!(
            (from as usize) < self.num_states(),
            "source state out of range"
        );
        self.transitions[from as usize][sym.index()].push(to);
    }

    /// Adds an ε-transition `from --ε--> to`.
    ///
    /// # Panics
    ///
    /// Panics if either state is out of range.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        let eps = self.alphabet.len();
        assert!((to as usize) < self.num_states(), "state out of range");
        debug_assert!(
            (from as usize) < self.num_states(),
            "source state out of range"
        );
        self.transitions[from as usize][eps].push(to);
    }

    /// Marks a state as initial (an NFA may have several).
    pub fn set_initial(&mut self, q: StateId) {
        debug_assert!((q as usize) < self.num_states(), "state out of range");
        if !self.initial.contains(&q) {
            self.initial.push(q);
        }
    }

    /// Marks a state as accepting.
    pub fn add_accepting(&mut self, q: StateId) {
        debug_assert!((q as usize) < self.num_states(), "state out of range");
        self.accepting.insert(q as usize);
    }

    /// Whether `q` is accepting.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting.contains(q as usize)
    }

    /// The ε-closure of the initial states.
    pub fn initial_closure(&self) -> BitSet {
        self.epsilon_closure(&self.initial.iter().map(|&q| q as usize).collect())
    }

    /// One symbol step from a set of states, **without** taking ε-closures
    /// on either side.
    pub fn symbol_successors(&self, set: &BitSet, sym: Symbol) -> BitSet {
        let mut next = BitSet::new();
        for q in set.iter() {
            for &t in &self.transitions[q][sym.index()] {
                next.insert(t as usize);
            }
        }
        next
    }

    /// The ε-closure of a set of states.
    pub fn epsilon_closure(&self, set: &BitSet) -> BitSet {
        let eps = self.alphabet.len();
        let mut closure = set.clone();
        let mut queue: VecDeque<usize> = set.iter().collect();
        while let Some(q) = queue.pop_front() {
            for &t in &self.transitions[q][eps] {
                if closure.insert(t as usize) {
                    queue.push_back(t as usize);
                }
            }
        }
        closure
    }

    /// Whether the NFA accepts the word (decided by explicit subset
    /// simulation; no determinization).
    pub fn accepts<I: IntoIterator<Item = Symbol>>(&self, word: I) -> bool {
        let mut current = self.initial_closure();
        for sym in word {
            current = self.epsilon_closure(&self.symbol_successors(&current, sym));
        }
        current.intersects(&self.accepting)
    }

    /// Subset construction: an equivalent complete DFA (minimized).
    pub fn determinize(&self) -> Dfa {
        let start = self.initial_closure();
        let mut index: HashMap<BitSet, StateId> = HashMap::new();
        let mut subsets: Vec<BitSet> = Vec::new();
        let mut delta: Vec<StateId> = Vec::new();
        index.insert(start.clone(), 0);
        subsets.push(start);
        let mut frontier = 0;
        while frontier < subsets.len() {
            let current = subsets[frontier].clone();
            for sym in self.alphabet.symbols() {
                let next = self.epsilon_closure(&self.symbol_successors(&current, sym));
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = subsets.len() as StateId;
                        index.insert(next.clone(), id);
                        subsets.push(next);
                        id
                    }
                };
                delta.push(id);
            }
            frontier += 1;
        }
        let accepting: BitSet = subsets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.intersects(&self.accepting))
            .map(|(i, _)| i)
            .collect();
        Dfa::from_parts(&self.alphabet, subsets.len(), 0, delta, accepting)
            .expect("subset construction yields a valid DFA")
            .minimize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    fn word(sigma: &Alphabet, s: &str) -> Vec<Symbol> {
        s.chars()
            .map(|c| sigma.symbol(&c.to_string()).unwrap())
            .collect()
    }

    /// NFA for Σ*b (nondeterministic guess of the final b).
    fn sigma_star_b(sigma: &Alphabet) -> Nfa {
        let b = sigma.symbol("b").unwrap();
        let a = sigma.symbol("a").unwrap();
        let mut n = Nfa::new(sigma);
        let s0 = n.add_state();
        let s1 = n.add_state();
        n.add_transition(s0, a, s0);
        n.add_transition(s0, b, s0);
        n.add_transition(s0, b, s1);
        n.set_initial(s0);
        n.add_accepting(s1);
        n
    }

    #[test]
    fn nfa_accepts() {
        let sigma = ab();
        let n = sigma_star_b(&sigma);
        assert!(n.accepts(word(&sigma, "ab")));
        assert!(n.accepts(word(&sigma, "b")));
        assert!(!n.accepts(word(&sigma, "ba")));
        assert!(!n.accepts(word(&sigma, "")));
    }

    #[test]
    fn determinize_matches_nfa() {
        let sigma = ab();
        let n = sigma_star_b(&sigma);
        let d = n.determinize();
        for w in ["", "a", "b", "ab", "ba", "abab", "abba", "bbb"] {
            assert_eq!(
                n.accepts(word(&sigma, w)),
                d.accepts(word(&sigma, w)),
                "disagreement on {w:?}"
            );
        }
        assert_eq!(d.num_states(), 2);
    }

    #[test]
    fn epsilon_transitions() {
        let sigma = ab();
        let a = sigma.symbol("a").unwrap();
        // ε-chain: s0 -ε-> s1 -a-> s2(acc), so the language is "a".
        let mut n = Nfa::new(&sigma);
        let s0 = n.add_state();
        let s1 = n.add_state();
        let s2 = n.add_state();
        n.add_epsilon(s0, s1);
        n.add_transition(s1, a, s2);
        n.set_initial(s0);
        n.add_accepting(s2);
        assert!(n.accepts([a]));
        assert!(!n.accepts([]));
        let d = n.determinize();
        assert!(d.accepts([a]));
        assert!(!d.accepts([a, a]));
    }

    #[test]
    fn epsilon_to_accepting_accepts_empty() {
        let sigma = ab();
        let mut n = Nfa::new(&sigma);
        let s0 = n.add_state();
        let s1 = n.add_state();
        n.add_epsilon(s0, s1);
        n.set_initial(s0);
        n.add_accepting(s1);
        assert!(n.accepts([]));
        assert!(n.determinize().accepts([]));
    }

    #[test]
    fn empty_nfa_rejects_everything() {
        let sigma = ab();
        let n = Nfa::new(&sigma);
        assert!(!n.accepts([]));
        let d = n.determinize();
        assert!(d.is_empty());
    }

    #[test]
    fn multiple_initial_states() {
        let sigma = ab();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let mut n = Nfa::new(&sigma);
        let s0 = n.add_state();
        let s1 = n.add_state();
        let acc = n.add_state();
        n.add_transition(s0, a, acc);
        n.add_transition(s1, b, acc);
        n.set_initial(s0);
        n.set_initial(s1);
        n.add_accepting(acc);
        let d = n.determinize();
        assert!(d.accepts([a]));
        assert!(d.accepts([b]));
        assert!(!d.accepts([a, b]));
    }
}

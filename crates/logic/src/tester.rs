//! Deterministic past testers — the \[LPZ85] construction behind the
//! paper's Proposition 5.3.
//!
//! For any finite set of *past* formulas `p₁, …, p_k`, there is a
//! deterministic automaton whose state after reading a finite word `w`
//! knows, for every `i`, whether `pᵢ` holds at the last position of `w`
//! (the paper's *end-satisfaction* `w ⊨̃ pᵢ`). States are truth assignments
//! to the past-closed set of subformulas; transitions apply the past
//! recurrence laws
//!
//! ```text
//! ⊖φ       now = φ before              (false at the first position)
//! ~⊖φ      likewise                    (true at the first position)
//! φ S ψ    now = ψ ∨ (φ ∧ (φ S ψ) before)
//! φ B ψ    now = ψ ∨ (φ ∧ (φ B ψ) before; true at the first position)
//! ⟐φ       now = φ ∨ ⟐φ before
//! ⊡φ       now = φ ∧ ⊡φ before
//! ```
//!
//! Construction compiles the subformula list once into an op table whose
//! operands are node indices, so each transition evaluates the table in
//! list order on two bit vectors and never looks a subformula up.
//!
//! The tester also yields the finitary property `esat(p)` of the paper —
//! the set of finite words end-satisfying `p` — as a [`FinitaryProperty`].

use crate::ast::Formula;
use hierarchy_automata::alphabet::{Alphabet, Symbol, SymbolSet};
use hierarchy_automata::bitset::BitSet;
use hierarchy_automata::dfa::Dfa;
use hierarchy_automata::StateId;
use hierarchy_lang::FinitaryProperty;
use std::collections::HashMap;

/// A deterministic past tester for one or more tracked past formulas.
///
/// State 0 is the *pre-state* (nothing read yet); every other state is a
/// truth assignment reached after at least one symbol.
///
/// # Examples
///
/// ```
/// use hierarchy_automata::prelude::*;
/// use hierarchy_logic::{tester::Tester, Formula};
///
/// let sigma = Alphabet::new(["a", "b"]).unwrap();
/// // b ∧ ⊖⊡a: "current symbol is b and everything before was a" — the
/// // paper's past formula for the finitary property a*b.
/// let p = Formula::parse(&sigma, "b & Y H a").unwrap();
/// let t = Tester::new(&sigma, &[p]).unwrap();
/// let q = t.run_str("aab").unwrap();
/// assert!(t.truth(q, 0));
/// let q2 = t.run_str("aba").unwrap();
/// assert!(!t.truth(q2, 0));
/// ```
#[derive(Debug, Clone)]
pub struct Tester {
    alphabet: Alphabet,
    /// The node of each tracked formula in the past-closed subformula
    /// list, in input order.
    tracked: Vec<usize>,
    /// Assignment of each state (bit `i` = truth of node `i`);
    /// `states[0]` is the pre-state and its assignment is meaningless.
    states: Vec<u64>,
    /// Flattened transition table.
    delta: Vec<StateId>,
}

/// One node of the past-closed subformula list, compiled once: its
/// operands are the indices of earlier nodes, so a step reads their
/// truth bits without looking a subformula up.
#[derive(Debug, Clone, Copy)]
enum Op {
    Const(bool),
    Atom(SymbolSet),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    /// `⊖x`, or `~⊖x`: `x` before; the flag at the first position.
    Prev(usize, bool),
    /// `x S y`, or `x B y`: `y ∨ (x ∧ itself before)`; the flag at the
    /// first position.
    Since(usize, usize, bool),
    Once(usize),
    Historically(usize),
}

/// Error building a tester.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TesterError {
    /// A tracked formula is not a past formula.
    NotPast {
        /// Display form of the offending formula.
        formula: String,
    },
    /// More than 64 distinct past subformulas.
    TooLarge {
        /// The subformula count.
        nodes: usize,
    },
}

impl std::fmt::Display for TesterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TesterError::NotPast { formula } => {
                write!(f, "tester requires past formulas, got {formula}")
            }
            TesterError::TooLarge { nodes } => {
                write!(
                    f,
                    "tester supports at most 64 past subformulas, got {nodes}"
                )
            }
        }
    }
}

impl std::error::Error for TesterError {}

impl Tester {
    /// Builds the tester for the given past formulas over `alphabet`.
    ///
    /// # Errors
    ///
    /// Returns [`TesterError::NotPast`] if a formula has future operators
    /// and [`TesterError::TooLarge`] beyond 64 distinct past subformulas.
    pub fn new(alphabet: &Alphabet, tracked: &[Formula]) -> Result<Self, TesterError> {
        for f in tracked {
            if !f.is_past() {
                return Err(TesterError::NotPast {
                    formula: f.to_string(),
                });
            }
        }
        // The past-closed postorder node list, as an op table.
        let mut ops: Vec<Op> = Vec::new();
        let mut index: HashMap<Formula, usize> = HashMap::new();
        fn visit(f: &Formula, ops: &mut Vec<Op>, index: &mut HashMap<Formula, usize>) -> usize {
            if let Some(&i) = index.get(f) {
                return i;
            }
            let op = match f {
                Formula::True => Op::Const(true),
                Formula::False => Op::Const(false),
                Formula::Atom(_, set) => Op::Atom(*set),
                Formula::Not(x) => Op::Not(visit(x, ops, index)),
                Formula::And(x, y) => Op::And(visit(x, ops, index), visit(y, ops, index)),
                Formula::Or(x, y) => Op::Or(visit(x, ops, index), visit(y, ops, index)),
                Formula::Prev(x) => Op::Prev(visit(x, ops, index), false),
                Formula::WPrev(x) => Op::Prev(visit(x, ops, index), true),
                Formula::Since(x, y) => {
                    Op::Since(visit(x, ops, index), visit(y, ops, index), false)
                }
                Formula::WSince(x, y) => {
                    Op::Since(visit(x, ops, index), visit(y, ops, index), true)
                }
                Formula::Once(x) => Op::Once(visit(x, ops, index)),
                Formula::Historically(x) => Op::Historically(visit(x, ops, index)),
                _ => unreachable!("non-past node in tester"),
            };
            index.insert(f.clone(), ops.len());
            ops.push(op);
            ops.len() - 1
        }
        let tracked_idx: Vec<usize> = tracked
            .iter()
            .map(|f| visit(f, &mut ops, &mut index))
            .collect();
        if ops.len() > 64 {
            return Err(TesterError::TooLarge { nodes: ops.len() });
        }

        // BFS exploration of assignment states.
        let k = alphabet.len();
        let mut states: Vec<u64> = vec![0]; // pre-state placeholder
        let mut state_ids: HashMap<(bool, u64), StateId> = HashMap::new();
        state_ids.insert((true, 0), 0); // (is_pre, assignment)
        let mut delta: Vec<StateId> = vec![StateId::MAX; k];
        let mut frontier: Vec<StateId> = vec![0];
        while let Some(q) = frontier.pop() {
            let old = (q != 0).then(|| states[q as usize]);
            for sym in alphabet.symbols() {
                let next = next_assignment(&ops, old, sym);
                let id = *state_ids.entry((false, next)).or_insert_with(|| {
                    states.push(next);
                    delta.extend(std::iter::repeat_n(StateId::MAX, k));
                    frontier.push((states.len() - 1) as StateId);
                    (states.len() - 1) as StateId
                });
                delta[q as usize * k + sym.index()] = id;
            }
        }
        Ok(Tester {
            alphabet: alphabet.clone(),
            tracked: tracked_idx,
            states,
            delta,
        })
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states, including the pre-state 0.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The pre-state (nothing read yet).
    pub fn initial(&self) -> StateId {
        0
    }

    /// The successor of `q` on `sym`.
    pub fn step(&self, q: StateId, sym: Symbol) -> StateId {
        self.delta[q as usize * self.alphabet.len() + sym.index()]
    }

    /// Runs the tester over a word from the pre-state.
    pub fn run<I: IntoIterator<Item = Symbol>>(&self, word: I) -> StateId {
        word.into_iter().fold(0, |q, sym| self.step(q, sym))
    }

    /// Runs over a string of single-character symbol names; `None` on
    /// unknown characters.
    pub fn run_str(&self, word: &str) -> Option<StateId> {
        let syms: Option<Vec<Symbol>> = word
            .chars()
            .map(|c| self.alphabet.symbol(&c.to_string()))
            .collect();
        Some(self.run(syms?))
    }

    /// Truth of tracked formula `tracked_idx` in state `q`.
    ///
    /// # Panics
    ///
    /// Panics for the pre-state (no position has been read yet) or an
    /// out-of-range index.
    pub fn truth(&self, q: StateId, tracked_idx: usize) -> bool {
        assert_ne!(q, 0, "the pre-state carries no truth values");
        let bit = self.tracked[tracked_idx];
        self.states[q as usize] & (1 << bit) != 0
    }

    /// The set of (non-pre) states in which tracked formula `tracked_idx`
    /// holds.
    pub fn states_where(&self, tracked_idx: usize) -> BitSet {
        let bit = self.tracked[tracked_idx];
        (1..self.states.len())
            .filter(|&q| self.states[q] & (1 << bit) != 0)
            .collect()
    }

    /// The tester as a DFA accepting `esat(p)` for tracked formula
    /// `tracked_idx` — the finite non-empty words that end-satisfy `p`.
    pub fn esat_dfa(&self, tracked_idx: usize) -> Dfa {
        let acc = self.states_where(tracked_idx);
        Dfa::build(
            &self.alphabet,
            self.num_states(),
            0,
            |q, s| self.step(q, s),
            acc.iter().map(|q| q as StateId),
        )
    }
}

/// The paper's `esat(p)`: the finitary property of finite words
/// end-satisfying the past formula `p`.
///
/// # Errors
///
/// Returns a [`TesterError`] if `p` is not past or is too large.
pub fn esat(alphabet: &Alphabet, p: &Formula) -> Result<FinitaryProperty, TesterError> {
    let t = Tester::new(alphabet, std::slice::from_ref(p))?;
    Ok(FinitaryProperty::from_dfa(t.esat_dfa(0)))
}

/// The assignment after reading `sym`, node by node in list order: a
/// node reads its operands' bits in the new assignment and its own or
/// its operand's bit in `old`, which is `None` in the pre-state, where
/// each past operator takes its value at the first position.
fn next_assignment(ops: &[Op], old: Option<u64>, sym: Symbol) -> u64 {
    let mut new = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let now = |j: usize| new >> j & 1 != 0;
        let before = |j: usize, at_first: bool| old.map_or(at_first, |o| o >> j & 1 != 0);
        let v = match *op {
            Op::Const(v) => v,
            Op::Atom(set) => set.contains(sym),
            Op::Not(x) => !now(x),
            Op::And(x, y) => now(x) && now(y),
            Op::Or(x, y) => now(x) || now(y),
            Op::Prev(x, at_first) => before(x, at_first),
            Op::Since(x, y, at_first) => now(y) || (now(x) && before(i, at_first)),
            Op::Once(x) => now(x) || before(i, false),
            Op::Historically(x) => now(x) && before(i, true),
        };
        new |= u64::from(v) << i;
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics;
    use hierarchy_automata::lasso::Lasso;
    use hierarchy_automata::random::random_lasso;
    use hierarchy_automata::random::rng::SeedableRng;
    use hierarchy_automata::random::rng::StdRng;

    fn letters() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    #[test]
    fn tracks_once() {
        let sigma = letters();
        let p = Formula::parse(&sigma, "O b").unwrap();
        let t = Tester::new(&sigma, &[p]).unwrap();
        assert!(!t.truth(t.run_str("aaa").unwrap(), 0));
        assert!(t.truth(t.run_str("aba").unwrap(), 0));
        assert!(t.truth(t.run_str("b").unwrap(), 0));
    }

    #[test]
    fn paper_esat_example() {
        // The paper: the finitary property a*b is represented by the past
        // formula "b holds now and a holds in all the preceding positions"
        // — with *weak* previous so that the single-letter word b (zero
        // preceding positions) qualifies.
        let sigma = letters();
        let p = Formula::parse(&sigma, "b & Z H a").unwrap();
        let phi = esat(&sigma, &p).unwrap();
        let expected = FinitaryProperty::parse(&sigma, "a*b").unwrap();
        assert!(phi.equivalent(&expected));
        // The strong-previous variant drops the word "b": a⁺b.
        let p2 = Formula::parse(&sigma, "b & Y H a").unwrap();
        let phi2 = esat(&sigma, &p2).unwrap();
        assert!(phi2.equivalent(&FinitaryProperty::parse(&sigma, "aa*b").unwrap()));
    }

    #[test]
    fn esat_of_state_formula() {
        // esat(b) = Σ*b.
        let sigma = letters();
        let p = Formula::parse(&sigma, "b").unwrap();
        let phi = esat(&sigma, &p).unwrap();
        assert!(phi.equivalent(&FinitaryProperty::parse(&sigma, ".*b").unwrap()));
    }

    #[test]
    fn rejects_future_formulas() {
        let sigma = letters();
        let f = Formula::parse(&sigma, "F b").unwrap();
        assert!(matches!(
            Tester::new(&sigma, &[f]),
            Err(TesterError::NotPast { .. })
        ));
    }

    #[test]
    fn first_is_position_zero() {
        let sigma = letters();
        let t = Tester::new(&sigma, &[Formula::first()]).unwrap();
        assert!(t.truth(t.run_str("a").unwrap(), 0));
        assert!(!t.truth(t.run_str("ab").unwrap(), 0));
        assert!(!t.truth(t.run_str("ba").unwrap(), 0));
    }

    #[test]
    fn multiple_tracked_formulas() {
        let sigma = letters();
        let p1 = Formula::parse(&sigma, "O a").unwrap();
        let p2 = Formula::parse(&sigma, "H a").unwrap();
        let t = Tester::new(&sigma, &[p1, p2]).unwrap();
        let q = t.run_str("ab").unwrap();
        assert!(t.truth(q, 0)); // some a
        assert!(!t.truth(q, 1)); // not all a
        let q2 = t.run_str("aa").unwrap();
        assert!(t.truth(q2, 0) && t.truth(q2, 1));
    }

    #[test]
    fn agrees_with_lasso_semantics() {
        // For a past formula p and lasso w, the tester state after the
        // first j+1 symbols knows p at position j; cross-check against the
        // direct evaluator on prefixes.
        let sigma = letters();
        let formulas = [
            "b & Y H a",
            "a S b",
            "a B b",
            "Y Y a",
            "O (a & Y b)",
            "H (a | Y b)",
            "Z a",
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for src in formulas {
            let p = Formula::parse(&sigma, src).unwrap();
            let t = Tester::new(&sigma, std::slice::from_ref(&p)).unwrap();
            for _ in 0..40 {
                let w = random_lasso(&mut rng, &sigma, 3, 3);
                let vals = semantics::evaluate(&p, &w).unwrap();
                let mut q = t.initial();
                for (j, expected) in vals.iter().enumerate().take(6) {
                    q = t.step(q, w.at(j));
                    assert_eq!(
                        t.truth(q, 0),
                        *expected,
                        "{src} at position {j} of {}",
                        w.display(&sigma)
                    );
                }
            }
        }
        let _ = Lasso::parse(&sigma, "", "a");
    }

    /// Seeded fuzz of the op table: pairs of random depth-4 past
    /// formulas over `2^{p,q,r}` (the audit pool's alphabet) and over
    /// `{a,b}` share one tester, and each tracked formula's truth after
    /// every prefix of a random lasso's evaluation window matches
    /// `semantics::evaluate`. The sweep meets every past node kind.
    #[test]
    fn op_table_agrees_with_the_evaluator_on_random_past_formulas() {
        use crate::random_formula::random_past_formula;
        use std::collections::HashSet;
        use std::mem::{discriminant, Discriminant};
        fn kinds(f: &Formula, seen: &mut HashSet<Discriminant<Formula>>) {
            seen.insert(discriminant(f));
            for c in f.children() {
                kinds(c, seen);
            }
        }
        let mut seen = HashSet::new();
        let mut checked = 0usize;
        let mut rng = StdRng::seed_from_u64(0x7E57);
        for sigma in [
            Alphabet::of_propositions(["p", "q", "r"]).unwrap(),
            letters(),
        ] {
            for case in 0..80 {
                // Two formulas of at most 31 nodes each stay within the
                // tester's 64.
                let formulas = [
                    random_past_formula(&mut rng, &sigma, 4),
                    random_past_formula(&mut rng, &sigma, 4),
                ];
                formulas.iter().for_each(|f| kinds(f, &mut seen));
                let t = Tester::new(&sigma, &formulas).unwrap();
                for _ in 0..6 {
                    let w = random_lasso(&mut rng, &sigma, 4, 4);
                    let vals: Vec<Vec<bool>> = formulas
                        .iter()
                        .map(|f| semantics::evaluate(f, &w).unwrap())
                        .collect();
                    let window = vals.iter().map(Vec::len).max().unwrap();
                    let mut q = t.initial();
                    for j in 0..window {
                        q = t.step(q, w.at(j));
                        for (i, f) in formulas.iter().enumerate() {
                            let Some(&expected) = vals[i].get(j) else {
                                continue;
                            };
                            assert_eq!(
                                t.truth(q, i),
                                expected,
                                "case {case}: {f} at position {j} of {}",
                                w.display(&sigma)
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        // True, False, Atom, Not, And, Or, Y, Z, S, B, O, H.
        assert_eq!(seen.len(), 12, "the sweep missed a past node kind");
        assert!(checked > 5_000, "too few positions checked: {checked}");
    }
}

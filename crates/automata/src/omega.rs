//! Complete deterministic ω-automata with boolean (Emerson–Lei) acceptance.
//!
//! [`OmegaAutomaton`] is the representation behind every infinitary property
//! in this workspace. Because the automata are deterministic and acceptance
//! conditions form a boolean algebra ([`Acceptance`]), the represented
//! ω-languages are closed under union, intersection and complement *exactly*
//! — no Safra determinization is ever needed (see `DESIGN.md`).

use crate::acceptance::Acceptance;
use crate::alphabet::{Alphabet, Symbol};
use crate::bitset::BitSet;
use crate::emptiness;
use crate::flat::FlatGraph;
use crate::inclusion::Product;
use crate::lasso::Lasso;
use crate::scc::{self, Successors};
use crate::StateId;
use std::collections::HashMap;

/// A complete deterministic ω-automaton with boolean acceptance.
///
/// A run over an infinite word is the unique state sequence it induces; the
/// run is accepting iff its infinity set satisfies the [`Acceptance`]
/// condition. The language of the automaton is the set of accepted ω-words.
///
/// # Examples
///
/// ```
/// use hierarchy_automata::prelude::*;
///
/// // ◇□a over {a,b}: co-Büchi automaton tracking the last symbol.
/// let sigma = Alphabet::new(["a", "b"]).unwrap();
/// let b = sigma.symbol("b").unwrap();
/// let ev_alw_a = OmegaAutomaton::build(&sigma, 2, 0,
///     |_, sym| if sym == b { 1 } else { 0 },
///     Acceptance::fin([1]));
/// assert!(ev_alw_a.accepts(&Lasso::parse(&sigma, "bb", "a").unwrap()));
/// assert!(!ev_alw_a.accepts(&Lasso::parse(&sigma, "", "ab").unwrap()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmegaAutomaton {
    alphabet: Alphabet,
    num_states: usize,
    initial: StateId,
    /// Flattened transition table: `delta[state * |Σ| + symbol]`.
    delta: Vec<StateId>,
    acceptance: Acceptance,
}

impl Successors for OmegaAutomaton {
    fn num_states(&self) -> usize {
        self.num_states
    }
    fn for_each_successor(&self, q: StateId, f: &mut dyn FnMut(StateId)) {
        for sym in self.alphabet.symbols() {
            f(self.step(q, sym));
        }
    }
}

impl OmegaAutomaton {
    /// Builds an automaton from a transition function.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0` or any state index is out of range.
    pub fn build<F>(
        alphabet: &Alphabet,
        num_states: usize,
        initial: StateId,
        mut delta: F,
        acceptance: Acceptance,
    ) -> Self
    where
        F: FnMut(StateId, Symbol) -> StateId,
    {
        assert!(num_states > 0, "an ω-automaton needs at least one state");
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
        debug_assert!(
            acceptance
                .atom_sets()
                .iter()
                .all(|s| s.iter().all(|q| q < num_states)),
            "acceptance atom sets must be subsets of the state set"
        );
        OmegaAutomaton {
            alphabet: alphabet.clone(),
            num_states,
            initial,
            delta: table,
            acceptance,
        }
    }

    /// Debug-mode structural audit for the constructor paths that
    /// assemble an automaton by struct literal after a renumbering
    /// (product, trim, reduce) instead of going through [`Self::build`]:
    /// every transition target, the initial state, and — the historically
    /// risky part — every acceptance atom set must stay inside
    /// `0..num_states` after the renumbering.
    fn audited(self) -> Self {
        debug_assert!(
            (self.initial as usize) < self.num_states,
            "initial state {} out of range (num_states = {})",
            self.initial,
            self.num_states
        );
        debug_assert_eq!(
            self.delta.len(),
            self.num_states * self.alphabet.len(),
            "transition table has wrong shape"
        );
        debug_assert!(
            self.delta.iter().all(|&t| (t as usize) < self.num_states),
            "transition target out of range"
        );
        debug_assert!(
            self.acceptance
                .atom_sets()
                .iter()
                .all(|s| s.iter().all(|q| q < self.num_states)),
            "acceptance atom sets must be subsets of the state set"
        );
        self
    }

    /// The automaton accepting the empty ω-language.
    pub fn empty(alphabet: &Alphabet) -> Self {
        OmegaAutomaton::build(alphabet, 1, 0, |_, _| 0, Acceptance::False)
    }

    /// The automaton accepting all of `Σ^ω`.
    pub fn universal(alphabet: &Alphabet) -> Self {
        OmegaAutomaton::build(alphabet, 1, 0, |_, _| 0, Acceptance::True)
    }

    /// The alphabet.
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

    /// The acceptance condition.
    pub fn acceptance(&self) -> &Acceptance {
        &self.acceptance
    }

    /// Replaces the acceptance condition, keeping the transition structure.
    pub fn with_acceptance(&self, acceptance: Acceptance) -> OmegaAutomaton {
        debug_assert!(
            acceptance
                .atom_sets()
                .iter()
                .all(|s| s.iter().all(|q| q < self.num_states)),
            "acceptance atom sets must be subsets of the state set"
        );
        let mut a = self.clone();
        a.acceptance = acceptance;
        a
    }

    /// The successor of `q` under `sym`.
    pub fn step(&self, q: StateId, sym: Symbol) -> StateId {
        self.delta[q as usize * self.alphabet.len() + sym.index()]
    }

    /// The flattened transition table, `table()[q·|Σ| + s]`.
    pub(crate) fn table(&self) -> &[StateId] {
        &self.delta
    }

    /// Runs the automaton on a finite word from the initial state.
    pub fn run<I: IntoIterator<Item = Symbol>>(&self, word: I) -> StateId {
        word.into_iter()
            .fold(self.initial, |q, sym| self.step(q, sym))
    }

    /// The infinity set of the unique run over a lasso word.
    pub fn infinity_set(&self, word: &Lasso) -> BitSet {
        // After the spoke, the states at which the run enters the loop
        // are the iterates of `round` (one traversal of the loop), so
        // they are ultimately periodic. Brent's cycle search finds an
        // entry state on their cycle and its period `period` with no
        // table of the iterates; the states visited in `period`
        // traversals from there are exactly the infinity set.
        let round = |mut q: StateId| {
            for &sym in word.cycle() {
                q = self.step(q, sym);
            }
            q
        };
        let (mut power, mut period) = (1usize, 1usize);
        let mut tortoise = self.run(word.spoke().iter().copied());
        let mut hare = round(tortoise);
        while tortoise != hare {
            if power == period {
                tortoise = hare;
                power *= 2;
                period = 0;
            }
            hare = round(hare);
            period += 1;
        }
        let mut inf = BitSet::with_capacity(self.num_states);
        let mut q = hare;
        for _ in 0..period {
            for &sym in word.cycle() {
                q = self.step(q, sym);
                inf.insert(q as usize);
            }
        }
        inf
    }

    /// Whether the automaton accepts the lasso word.
    pub fn accepts(&self, word: &Lasso) -> bool {
        self.acceptance
            .accepts_infinity_set(&self.infinity_set(word))
    }

    /// States reachable from the initial state.
    pub fn reachable_states(&self) -> BitSet {
        let start = BitSet::from_iter([self.initial as usize]);
        forward_closure(&self.delta, self.alphabet.len(), start)
    }

    /// SCC decomposition of (a restriction of) the transition graph.
    pub fn sccs(&self, allowed: Option<&BitSet>) -> scc::SccDecomposition {
        scc::tarjan_scc(self, allowed)
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        self.accepted_lasso().is_none()
    }

    /// Whether the language is all of `Σ^ω`.
    pub fn is_universal(&self) -> bool {
        self.complement().is_empty()
    }

    /// Some accepted lasso word, if the language is non-empty: the
    /// targeted tour of the first accepting region of the
    /// accepting-cycle kernel.
    pub fn accepted_lasso(&self) -> Option<Lasso> {
        let disjuncts = emptiness::decompose(&self.acceptance, self.num_states);
        let reachable = self.reachable_states();
        let witness = emptiness::first_witness(disjuncts, &reachable, emptiness::scc_memo(self))?;
        Some(witness.lasso(self))
    }

    /// The complement automaton (same structure, negated acceptance).
    pub fn complement(&self) -> OmegaAutomaton {
        self.with_acceptance(self.acceptance.negated())
    }

    /// Product of two automata over the same alphabet, with acceptance
    /// obtained by `combine`-ing the two embedded conditions. Only reachable
    /// product states are constructed.
    ///
    /// `combine` receives each automaton's acceptance condition rewritten to
    /// product-state sets.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn product_with<F>(&self, other: &OmegaAutomaton, combine: F) -> OmegaAutomaton
    where
        F: FnOnce(Acceptance, Acceptance) -> Acceptance,
    {
        let product = Product::of(self, other);
        let left = self.acceptance.map_sets(&|s: &BitSet| product.lift_left(s));
        let right = other
            .acceptance
            .map_sets(&|s: &BitSet| product.lift_right(s));
        OmegaAutomaton {
            alphabet: self.alphabet.clone(),
            num_states: product.num_states(),
            initial: 0,
            acceptance: combine(left, right),
            delta: product.delta,
        }
        .audited()
    }

    /// Intersection of the two ω-languages.
    pub fn intersection(&self, other: &OmegaAutomaton) -> OmegaAutomaton {
        self.product_with(other, Acceptance::and)
    }

    /// Union of the two ω-languages.
    pub fn union(&self, other: &OmegaAutomaton) -> OmegaAutomaton {
        self.product_with(other, Acceptance::or)
    }

    /// Difference `L(self) \ L(other)`.
    pub fn difference(&self, other: &OmegaAutomaton) -> OmegaAutomaton {
        self.product_with(&other.complement(), Acceptance::and)
    }

    /// Whether `L(self) ⊆ L(other)`, decided by the direct product-graph
    /// algorithm of [`crate::inclusion`] (Angluin & Fisman) — no
    /// complement automaton, no acceptance DNF. In debug builds the
    /// verdict is cross-checked against
    /// [`Self::is_subset_of_via_complement`].
    pub fn is_subset_of(&self, other: &OmegaAutomaton) -> bool {
        let res = crate::inclusion::included(self, other);
        debug_assert_eq!(
            res,
            self.is_subset_of_via_complement(other),
            "direct-inclusion tripwire: verdict differs from the complement oracle"
        );
        res
    }

    /// Whether `L(self) ⊆ L(other)` via the classical construction:
    /// `L(self) ∖ L(other)` is built as a complement + product, and its
    /// acceptance is expanded into the generalized-Rabin DNF of
    /// [`Acceptance::dnf`]. The difference is non-empty iff, for some
    /// disjunct, a cyclic SCC of the reachable states outside `fin` meets
    /// every `inf` set. Kept as the differential oracle for
    /// [`Self::is_subset_of`]: it shares neither the product-graph lifting
    /// nor the accepting-cycle kernel of [`crate::emptiness`], and it pays
    /// the `2^k` DNF on `k`-pair Streett conditions that the direct oracle
    /// avoids.
    pub fn is_subset_of_via_complement(&self, other: &OmegaAutomaton) -> bool {
        let diff = self.difference(other);
        let reachable = diff.reachable_states();
        !diff.acceptance.dnf().iter().any(|pair| {
            let sccs = diff.sccs(Some(&reachable.difference(&pair.fin)));
            (0..sccs.len()).any(|c| {
                let members = sccs.member_set(c);
                sccs.has_cycle[c] && pair.infs.iter().all(|s| members.intersects(s))
            })
        })
    }

    /// Whether the two automata accept the same ω-language, decided by
    /// the direct product-graph algorithm of [`crate::inclusion`] (both
    /// directions share one product). In debug builds the verdict is
    /// cross-checked against [`Self::equivalent_via_complement`].
    pub fn equivalent(&self, other: &OmegaAutomaton) -> bool {
        let res = crate::inclusion::equivalent(self, other);
        debug_assert_eq!(
            res,
            self.equivalent_via_complement(other),
            "direct-equivalence tripwire: verdict differs from the complement oracle"
        );
        res
    }

    /// Equivalence via the classical complement+product+emptiness
    /// construction, kept as the differential oracle for
    /// [`Self::equivalent`] (see [`Self::is_subset_of_via_complement`]).
    pub fn equivalent_via_complement(&self, other: &OmegaAutomaton) -> bool {
        self.is_subset_of_via_complement(other) && other.is_subset_of_via_complement(self)
    }

    /// A lasso accepted by exactly one of the two automata, if the languages
    /// differ. Extracted from the direct inclusion check's witness region
    /// (see [`crate::inclusion::distinguishing_lasso`]).
    pub fn distinguishing_lasso(&self, other: &OmegaAutomaton) -> Option<Lasso> {
        crate::inclusion::distinguishing_lasso(self, other)
    }

    /// Restricts the automaton to its reachable part, renumbering states
    /// and rewriting the acceptance sets accordingly.
    pub fn trim(&self) -> OmegaAutomaton {
        let reach = self.reachable_states();
        if reach.len() == self.num_states {
            return self.clone();
        }
        let mut dense = vec![StateId::MAX; self.num_states];
        let mut order: Vec<StateId> = reach.iter().map(|q| q as StateId).collect();
        order.sort_unstable();
        for (i, &q) in order.iter().enumerate() {
            dense[q as usize] = i as StateId;
        }
        let k = self.alphabet.len();
        let mut delta = Vec::with_capacity(order.len() * k);
        for &q in &order {
            for s in 0..k {
                let t = self.step(q, Symbol(s as u8));
                delta.push(dense[t as usize]);
            }
        }
        let acceptance = self.acceptance.map_sets(&|set: &BitSet| {
            set.iter()
                .filter(|&q| reach.contains(q))
                .map(|q| dense[q] as usize)
                .collect()
        });
        OmegaAutomaton {
            alphabet: self.alphabet.clone(),
            num_states: order.len(),
            initial: dense[self.initial as usize],
            delta,
            acceptance,
        }
        .audited()
    }

    /// Reduces the automaton by merging states that are equivalent under
    /// Moore partition refinement, where the initial partition groups
    /// states by their membership in the acceptance atom sets.
    ///
    /// Sound for deterministic automata with membership-based acceptance:
    /// merged states induce identical atom-visit sequences on every word,
    /// hence identical acceptance. The result is not necessarily minimal
    /// (ω-automaton minimization is harder), but shrinks tester products
    /// considerably.
    ///
    /// This is the naive `O(k·n²)` Moore-style refinement. The production
    /// pipeline uses [`crate::minimize::minimize`] (Hopcroft worklist,
    /// `O(k·n·log n)`, canonical numbering); `reduce` is kept as an
    /// independently-implemented differential oracle — both must compute
    /// the same partition, and `crate::minimize`'s tests assert exactly
    /// that.
    pub fn reduce(&self) -> OmegaAutomaton {
        let trimmed = self.trim();
        let n = trimmed.num_states;
        let k = trimmed.alphabet.len();
        let atoms = trimmed.acceptance.atom_sets();
        // Initial classes: identical atom membership signatures.
        let mut class = vec![0usize; n];
        {
            let mut sig_ids: HashMap<Vec<bool>, usize> = HashMap::new();
            for (q, cls) in class.iter_mut().enumerate() {
                let sig: Vec<bool> = atoms.iter().map(|s| s.contains(q)).collect();
                let next = sig_ids.len();
                *cls = *sig_ids.entry(sig).or_insert(next);
            }
        }
        let mut num_classes = class.iter().max().map_or(1, |m| m + 1);
        loop {
            let mut sig_to_class: HashMap<Vec<usize>, usize> = HashMap::new();
            let mut next_class = vec![0usize; n];
            for q in 0..n {
                let mut sig = Vec::with_capacity(k + 1);
                sig.push(class[q]);
                for s in 0..k {
                    sig.push(class[trimmed.step(q as StateId, Symbol(s as u8)) as usize]);
                }
                let next = sig_to_class.len();
                next_class[q] = *sig_to_class.entry(sig).or_insert(next);
            }
            let next_num = sig_to_class.len();
            if next_num == num_classes {
                break;
            }
            class = next_class;
            num_classes = next_num;
        }
        if num_classes == n {
            return trimmed;
        }
        let mut delta = vec![0 as StateId; num_classes * k];
        for q in 0..n {
            for s in 0..k {
                delta[class[q] * k + s] =
                    class[trimmed.step(q as StateId, Symbol(s as u8)) as usize] as StateId;
            }
        }
        let acceptance = trimmed
            .acceptance
            .map_sets(&|set: &BitSet| set.iter().map(|q| class[q]).collect());
        OmegaAutomaton {
            alphabet: trimmed.alphabet.clone(),
            num_states: num_classes,
            initial: class[trimmed.initial as usize] as StateId,
            delta,
            acceptance,
        }
        .audited()
    }

    /// The same automaton started from `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn with_initial(&self, q: StateId) -> OmegaAutomaton {
        assert!((q as usize) < self.num_states, "state out of range");
        let mut a = self.clone();
        a.initial = q;
        a
    }

    /// States with a non-empty residual language, i.e. states from which
    /// some ω-word is accepted. In the paper's terms these carry
    /// `Pref(Π)`: a finite word is a prefix of a word in Π iff it leads to
    /// such a state (for deterministic, complete automata).
    pub fn live_states(&self) -> BitSet {
        let n = self.num_states;
        let all = BitSet::all(n);
        let good = emptiness::cycle_states(&self.acceptance, n, &all, emptiness::scc_memo(self));
        let predecessors = FlatGraph::from_delta(n, self.alphabet.len(), &self.delta).reversed();
        emptiness::backward_closure(&predecessors, good)
    }
}

/// The smallest superset of `set` closed under the transitions of a
/// flattened deterministic table `delta[q·k + s]`: the one forward walk,
/// behind reachability ([`OmegaAutomaton::reachable_states`],
/// [`crate::dfa::Dfa::reachable_states`]) and the paper's successor
/// closure ([`crate::paper_checks::successor_closure`]).
pub(crate) fn forward_closure(delta: &[StateId], k: usize, mut set: BitSet) -> BitSet {
    let mut queue: std::collections::VecDeque<usize> = set.iter().collect();
    while let Some(q) = queue.pop_front() {
        for &t in &delta[q * k..(q + 1) * k] {
            if set.insert(t as usize) {
                queue.push_back(t as usize);
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Deterministic Büchi automaton for "infinitely many b" over {a,b}.
    fn inf_b(sigma: &Alphabet) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            Acceptance::inf([1]),
        )
    }

    /// Co-Büchi automaton for "eventually only a" (◇□a) over {a,b}.
    fn ev_alw_a(sigma: &Alphabet) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            Acceptance::fin([1]),
        )
    }

    fn lasso(sigma: &Alphabet, u: &str, v: &str) -> Lasso {
        Lasso::parse(sigma, u, v).unwrap()
    }

    #[test]
    fn lasso_acceptance() {
        let sigma = ab();
        let m = inf_b(&sigma);
        assert!(m.accepts(&lasso(&sigma, "", "ab")));
        assert!(m.accepts(&lasso(&sigma, "aaa", "b")));
        assert!(!m.accepts(&lasso(&sigma, "b", "a")));
        assert!(!m.accepts(&lasso(&sigma, "bbbb", "aa")));
    }

    #[test]
    fn infinity_set_computation() {
        let sigma = ab();
        let m = inf_b(&sigma);
        // On (ab)^ω the run alternates 0,1 forever.
        assert_eq!(
            m.infinity_set(&lasso(&sigma, "", "ab")),
            BitSet::from_iter([0, 1])
        );
        // On b a^ω the run eventually stays in 0.
        assert_eq!(
            m.infinity_set(&lasso(&sigma, "b", "a")),
            BitSet::from_iter([0])
        );
    }

    /// `infinity_set` against a literal reference on random automata and
    /// lassos: the loop entry states repeat within `num_states`
    /// traversals of the loop, so after skipping that many the run is
    /// periodic, and the next `num_states` traversals cover at least one
    /// full period. The sweep must reach entry orbits with a tail (the
    /// run re-enters its cycle mid-way) and periods of several
    /// traversals.
    #[test]
    fn infinity_set_matches_a_literal_reference() {
        use crate::random::rng::{Rng, SeedableRng, StdRng};
        use crate::random::{random_acceptance, random_lasso, random_structure};
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let mut rng = StdRng::seed_from_u64(0x1A550);
        let (mut tails, mut long_periods) = (0, 0);
        for case in 0..500 {
            let n = rng.gen_range(1..=12usize);
            let acc = random_acceptance(&mut rng, n, 2);
            let aut = random_structure(&mut rng, &sigma, n).with_acceptance(acc);
            let word = random_lasso(&mut rng, &sigma, 5, 6);
            let round = |q: StateId| word.cycle().iter().fold(q, |q, &s| aut.step(q, s));
            let mut q = aut.run(word.spoke().iter().copied());
            let mut entries = vec![q];
            for _ in 0..n {
                q = round(q);
                entries.push(q);
            }
            let mut reference = BitSet::new();
            for _ in 0..n {
                for &sym in word.cycle() {
                    q = aut.step(q, sym);
                    reference.insert(q as usize);
                }
            }
            // The first entry state that recurs starts the cycle.
            let (tail, period) = (0..=n)
                .find_map(|i| {
                    let again = entries[i + 1..].iter().position(|&e| e == entries[i]);
                    again.map(|p| (i, p + 1))
                })
                .unwrap();
            tails += usize::from(tail > 0);
            long_periods += usize::from(period > 1);
            assert_eq!(aut.infinity_set(&word), reference, "case {case}");
            assert_eq!(
                aut.accepts(&word),
                aut.acceptance().accepts_infinity_set(&reference),
                "case {case}"
            );
        }
        assert!(tails > 50 && long_periods > 50, "{tails} {long_periods}");
    }

    #[test]
    fn complement_flips_membership() {
        let sigma = ab();
        let m = inf_b(&sigma);
        let c = m.complement();
        for (u, v) in [("", "ab"), ("b", "a"), ("", "b"), ("ba", "ba")] {
            let w = lasso(&sigma, u, v);
            assert_ne!(m.accepts(&w), c.accepts(&w), "on {u}({v})^ω");
        }
    }

    #[test]
    fn complement_of_buchi_is_cobuchi_language() {
        let sigma = ab();
        // ¬(infinitely many b) = eventually only a.
        assert!(inf_b(&sigma).complement().equivalent(&ev_alw_a(&sigma)));
    }

    #[test]
    fn boolean_operations() {
        let sigma = ab();
        let m = inf_b(&sigma);
        let n = ev_alw_a(&sigma);
        // inf-b ∧ ev-alw-a is empty (can't have infinitely many b and
        // eventually none).
        assert!(m.intersection(&n).is_empty());
        // inf-b ∨ ev-alw-a is everything.
        assert!(m.union(&n).is_universal());
        assert!(m.difference(&n).equivalent(&m));
        assert!(!m.is_subset_of(&n));
        assert!(m.intersection(&n).is_subset_of(&m));
    }

    #[test]
    fn equivalence_and_distinguishing() {
        let sigma = ab();
        let m = inf_b(&sigma);
        assert!(m.equivalent(&m.clone()));
        let n = ev_alw_a(&sigma);
        let w = m.distinguishing_lasso(&n).unwrap();
        assert_ne!(m.accepts(&w), n.accepts(&w));
        assert_eq!(m.distinguishing_lasso(&m.clone()), None);
    }

    #[test]
    fn empty_and_universal() {
        let sigma = ab();
        assert!(OmegaAutomaton::empty(&sigma).is_empty());
        assert!(OmegaAutomaton::universal(&sigma).is_universal());
        assert!(!inf_b(&sigma).is_empty());
        assert!(!inf_b(&sigma).is_universal());
    }

    #[test]
    fn accepted_lasso_is_accepted() {
        let sigma = ab();
        let m = inf_b(&sigma);
        let w = m.accepted_lasso().unwrap();
        assert!(m.accepts(&w));
        assert_eq!(OmegaAutomaton::empty(&sigma).accepted_lasso(), None);
    }

    #[test]
    fn trim_preserves_language() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // State 2 unreachable.
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| {
                if q == 2 {
                    2
                } else if s == b {
                    1
                } else {
                    0
                }
            },
            Acceptance::inf([1, 2]),
        );
        let t = m.trim();
        assert_eq!(t.num_states(), 2);
        assert!(t.equivalent(&m));
    }

    #[test]
    fn live_states_of_partial_language() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // Safety automaton for "never b": state 1 is a rejecting trap.
        let m = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::fin([1]),
        );
        let live = m.live_states();
        assert!(live.contains(0));
        assert!(!live.contains(1));
    }

    #[test]
    fn product_acceptance_remap() {
        let sigma = ab();
        let m = inf_b(&sigma);
        let n = inf_b(&sigma);
        let p = m.intersection(&n);
        // Intersection of identical languages is the same language.
        assert!(p.equivalent(&m));
    }

    #[test]
    fn with_initial_changes_language() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // "never b" safety automaton; from the trap state the language is
        // empty.
        let m = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::fin([1]),
        );
        assert!(!m.is_empty());
        assert!(m.with_initial(1).is_empty());
    }
}

#[cfg(test)]
mod reduce_tests {
    use super::*;
    use crate::classify;
    use crate::random::rng::SeedableRng;
    use crate::random::rng::StdRng;
    use crate::random::{random_lasso, random_streett};

    #[test]
    fn reduce_preserves_language_on_random_automata() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..30 {
            let (aut, _) = random_streett(&mut rng, &sigma, 8, 2, 0.3);
            let red = aut.reduce();
            assert!(red.num_states() <= aut.num_states());
            assert!(red.equivalent(&aut));
            for _ in 0..30 {
                let w = random_lasso(&mut rng, &sigma, 4, 3);
                assert_eq!(red.accepts(&w), aut.accepts(&w));
            }
        }
    }

    #[test]
    fn reduce_merges_redundant_states() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        // Two copies of the same 2-state Büchi automaton glued by parity:
        // 4 states reduce to 2.
        let m = OmegaAutomaton::build(
            &sigma,
            4,
            0,
            |q, s| {
                let copy = q / 2;
                let base = if s == b { 1 } else { 0 };
                // Alternate copies on every step to create redundancy.
                ((1 - copy) * 2 + base) as StateId
            },
            Acceptance::inf([1, 3]),
        );
        let red = m.reduce();
        assert_eq!(red.num_states(), 2);
        assert!(red.equivalent(&m));
        let c = classify::classify(&red);
        assert!(c.is_recurrence);
    }

    #[test]
    fn reduce_is_idempotent() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let mut rng = StdRng::seed_from_u64(92);
        let (aut, _) = random_streett(&mut rng, &sigma, 7, 2, 0.3);
        let once = aut.reduce();
        let twice = once.reduce();
        assert_eq!(once.num_states(), twice.num_states());
    }
}

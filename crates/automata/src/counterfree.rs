//! Counter-freedom: the frontier of temporal-logic expressibility.
//!
//! A deterministic automaton is *counter-free* (\[MP71]) if there is no
//! finite word `σ` and state `q` with `δ(q, σⁿ) = q` for some `n > 1` while
//! `δ(q, σ) ≠ q` — such a pair would let the automaton count occurrences of
//! `σ` modulo `n`. The paper (§5, after Prop 5.3, citing \[Zuc86]) states
//! that an automaton specifies a temporal-logic-expressible property iff it
//! is counter-free.
//!
//! The test works on the transition *monoid*: the set of state
//! transformations induced by finite words, generated from the single-symbol
//! transformations by composition. The automaton has a counter iff some
//! transformation in the monoid has a periodic point of period `> 1`
//! (equivalently, iff the monoid is not aperiodic).

use crate::dfa::Dfa;
use crate::omega::OmegaAutomaton;
use crate::StateId;
use std::collections::{HashMap, VecDeque};

/// A state transformation `Q → Q` (row `q` gives the image of `q`).
type Transform = Vec<StateId>;

/// The outcome of a counter-freedom check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CounterFreedom {
    /// No counter exists: the transition monoid is aperiodic, so the
    /// automaton's properties are expressible in temporal logic.
    CounterFree {
        /// Size of the (explored) transition monoid.
        monoid_size: usize,
    },
    /// A counter was found: word `word` cycles state `state` with period
    /// `period > 1`.
    Counter {
        /// A word inducing the counting transformation.
        word: Vec<crate::alphabet::Symbol>,
        /// A state on the nontrivial cycle of that transformation.
        state: StateId,
        /// The period (`> 1`).
        period: usize,
    },
}

impl CounterFreedom {
    /// Whether the automaton is counter-free.
    pub fn is_counter_free(&self) -> bool {
        matches!(self, CounterFreedom::CounterFree { .. })
    }
}

/// Default cap on the number of monoid elements explored before giving up.
pub const DEFAULT_MONOID_CAP: usize = 1_000_000;

/// Checks counter-freedom of a deterministic ω-automaton's transition
/// structure (acceptance is irrelevant).
///
/// # Panics
///
/// Panics if the transition monoid exceeds `monoid_cap` elements without a
/// verdict; the monoid of an `n`-state automaton has at most `n^n` elements,
/// so small automata always finish.
pub fn check_omega(aut: &OmegaAutomaton, monoid_cap: usize) -> CounterFreedom {
    let n = aut.num_states();
    let generators: Vec<(crate::alphabet::Symbol, Transform)> = aut
        .alphabet()
        .symbols()
        .map(|sym| (sym, (0..n as StateId).map(|q| aut.step(q, sym)).collect()))
        .collect();
    explore_monoid(n, &generators, monoid_cap)
}

/// Checks counter-freedom of a DFA's transition structure.
///
/// # Panics
///
/// Panics if the monoid exceeds `monoid_cap` elements (see [`check_omega`]).
pub fn check_dfa(dfa: &Dfa, monoid_cap: usize) -> CounterFreedom {
    let n = dfa.num_states();
    let generators: Vec<(crate::alphabet::Symbol, Transform)> = dfa
        .alphabet()
        .symbols()
        .map(|sym| (sym, (0..n as StateId).map(|q| dfa.step(q, sym)).collect()))
        .collect();
    explore_monoid(n, &generators, monoid_cap)
}

fn explore_monoid(
    _n: usize,
    generators: &[(crate::alphabet::Symbol, Transform)],
    monoid_cap: usize,
) -> CounterFreedom {
    // BFS over the monoid; each element remembers the word that produced it.
    let mut seen: HashMap<Transform, usize> = HashMap::new();
    let mut queue: VecDeque<(Transform, Vec<crate::alphabet::Symbol>)> = VecDeque::new();
    for (sym, t) in generators {
        if let Some(found) = counting_cycle(t) {
            return CounterFreedom::Counter {
                word: vec![*sym],
                state: found.0,
                period: found.1,
            };
        }
        if !seen.contains_key(t) {
            seen.insert(t.clone(), seen.len());
            queue.push_back((t.clone(), vec![*sym]));
        }
    }
    while let Some((t, word)) = queue.pop_front() {
        for (sym, g) in generators {
            // Compose: first t (the word so far), then g.
            let composed: Transform = t.iter().map(|&q| g[q as usize]).collect();
            if seen.contains_key(&composed) {
                continue;
            }
            let mut w = word.clone();
            w.push(*sym);
            if let Some(found) = counting_cycle(&composed) {
                return CounterFreedom::Counter {
                    word: w,
                    state: found.0,
                    period: found.1,
                };
            }
            assert!(
                seen.len() < monoid_cap,
                "transition monoid exceeds cap of {monoid_cap} elements"
            );
            seen.insert(composed.clone(), seen.len());
            queue.push_back((composed, w));
        }
    }
    CounterFreedom::CounterFree {
        monoid_size: seen.len(),
    }
}

/// Finds a periodic point of period > 1: a state `q` with `f^k(q) = q` for
/// some minimal `k > 1`.
///
/// Runs in `O(n)` per transform (this sits on the monoid-exploration hot
/// path, which calls it once per monoid element): a single colored-visited
/// map is shared across all start states, so each state is walked exactly
/// once. A walk that reaches territory colored by an earlier walk stops —
/// the functional graph routes that trajectory into a cycle the earlier
/// walk already examined. A walk that re-enters its *own* territory has
/// found its cycle, whose length is the minimal period of every state on
/// it (states on a `k`-cycle of a function satisfy `f^j(q) = q` iff
/// `k | j`).
fn counting_cycle(f: &Transform) -> Option<(StateId, usize)> {
    counting_cycle_counted(f).0
}

/// [`counting_cycle`] instrumented with the number of trajectory steps
/// taken — the complexity regression test pins this to `O(n)`.
fn counting_cycle_counted(f: &Transform) -> (Option<(StateId, usize)>, usize) {
    let n = f.len();
    // walk_of[q]: the walk that first visited q (usize::MAX = unvisited);
    // pos_of[q]: q's step index within that walk.
    let mut walk_of = vec![usize::MAX; n];
    let mut pos_of = vec![0usize; n];
    let mut steps = 0usize;
    for q0 in 0..n {
        if walk_of[q0] != usize::MAX {
            continue;
        }
        let mut q = q0;
        let mut i = 0usize;
        loop {
            if walk_of[q] == q0 {
                // Re-entered this walk's own territory: found its cycle.
                let period = i - pos_of[q];
                if period > 1 {
                    return (Some((q as StateId, period)), steps);
                }
                break;
            }
            if walk_of[q] != usize::MAX {
                // Joined an earlier walk; its cycle was already checked.
                break;
            }
            walk_of[q] = q0;
            pos_of[q] = i;
            q = f[q] as usize;
            i += 1;
            steps += 1;
        }
    }
    (None, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::Acceptance;
    use crate::alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Modulo-n counter on symbol a (the canonical non-counter-free
    /// automaton).
    fn mod_counter(sigma: &Alphabet, n: usize) -> OmegaAutomaton {
        let a = sigma.symbol("a").unwrap();
        OmegaAutomaton::build(
            sigma,
            n,
            0,
            move |q, s| {
                if s == a {
                    ((q as usize + 1) % n) as StateId
                } else {
                    q
                }
            },
            Acceptance::inf([0]),
        )
    }

    #[test]
    fn mod2_counter_detected() {
        let sigma = ab();
        let m = mod_counter(&sigma, 2);
        let v = check_omega(&m, DEFAULT_MONOID_CAP);
        match v {
            CounterFreedom::Counter { period, word, .. } => {
                assert!(period > 1);
                assert!(!word.is_empty());
            }
            _ => panic!("mod-2 counter not detected"),
        }
    }

    #[test]
    fn mod5_counter_detected() {
        let sigma = ab();
        let m = mod_counter(&sigma, 5);
        assert!(!check_omega(&m, DEFAULT_MONOID_CAP).is_counter_free());
    }

    #[test]
    fn last_symbol_tracker_is_counter_free() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            Acceptance::inf([1]),
        );
        assert!(check_omega(&m, DEFAULT_MONOID_CAP).is_counter_free());
    }

    #[test]
    fn trap_automaton_is_counter_free() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::fin([1]),
        );
        let v = check_omega(&m, DEFAULT_MONOID_CAP);
        assert!(v.is_counter_free());
        if let CounterFreedom::CounterFree { monoid_size } = v {
            assert!(monoid_size >= 2);
        }
    }

    #[test]
    fn dfa_check_counts_even_words() {
        let sigma = ab();
        // Even-length words: both symbols advance the parity.
        let d = Dfa::build(&sigma, 2, 0, |q, _| 1 - q, [0]);
        assert!(!check_dfa(&d, DEFAULT_MONOID_CAP).is_counter_free());
        // "Contains b": counter-free.
        let b = sigma.symbol("b").unwrap();
        let d2 = Dfa::build(
            &sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            [1],
        );
        assert!(check_dfa(&d2, DEFAULT_MONOID_CAP).is_counter_free());
    }

    /// The minimal-period claim on a transform whose trajectory enters
    /// its cycle mid-way: the reported state must lie ON the cycle and
    /// the period must be the cycle length, not the tail-inclusive
    /// distance.
    #[test]
    fn counting_cycle_minimal_period_with_tail() {
        // 0 → 1 → 2 → 3 → 4 → 2: a 2-step tail into the 3-cycle {2,3,4}.
        let f: Transform = vec![1, 2, 3, 4, 2];
        let (found, _) = counting_cycle_counted(&f);
        let (state, period) = found.expect("the 3-cycle is a counter");
        assert_eq!(period, 3, "period is the cycle length");
        assert!((2..=4).contains(&state), "reported state lies on the cycle");
        // The period is minimal: applying f `period` times fixes `state`,
        // applying it once does not.
        let apply = |mut q: StateId, times: usize| {
            for _ in 0..times {
                q = f[q as usize];
            }
            q
        };
        assert_eq!(apply(state, period), state);
        assert_ne!(apply(state, 1), state);
        // Fixed points (period 1) are not counters, even behind a tail.
        let g: Transform = vec![1, 2, 2];
        assert_eq!(counting_cycle_counted(&g).0, None);
        // A later walk joining an earlier walk's territory must not
        // fabricate a period from mixed step indices.
        let h: Transform = vec![0, 0, 1, 1]; // everything drains into fixed point 0
        assert_eq!(counting_cycle_counted(&h).0, None);
    }

    /// Regression for the O(n²) re-walk: every start state used to
    /// allocate a fresh `seen_at` vector and re-trace the trajectory, so
    /// a long chain draining into a fixed point cost ~n²/2 steps. The
    /// shared colored-visited map walks each state once: total steps are
    /// bounded by n.
    #[test]
    fn counting_cycle_is_linear_in_states() {
        let n = 512;
        // Chain n-1 → n-2 → … → 1 → 0 ⟲ (fixed point): worst case for
        // the old per-start re-walk (quadratic), linear for the new one.
        let f: Transform = (0..n as StateId).map(|q| q.saturating_sub(1)).collect();
        let (found, steps) = counting_cycle_counted(&f);
        assert_eq!(found, None);
        assert!(
            steps <= n,
            "expected O(n) trajectory steps, got {steps} for n={n}"
        );
    }

    #[test]
    fn counter_word_actually_counts() {
        let sigma = ab();
        let m = mod_counter(&sigma, 3);
        if let CounterFreedom::Counter {
            word,
            state,
            period,
        } = check_omega(&m, DEFAULT_MONOID_CAP)
        {
            // Applying the word `period` times returns to `state`, once
            // does not.
            let mut q = state;
            for _ in 0..period {
                q = word.iter().fold(q, |s, &sym| m.step(s, sym));
            }
            assert_eq!(q, state);
            let once = word.iter().fold(state, |s, &sym| m.step(s, sym));
            assert_ne!(once, state);
        } else {
            panic!("expected a counter");
        }
    }
}

//! Flat, cache-friendly graph and transition layouts (CSR).
//!
//! Every hot walk of the classification stack — the restricted Tarjan
//! passes of the alternating cycle decomposition, liveness, the
//! condensation, the fair-cycle search of the model checker — iterates
//! successors of the
//! same graph over and over. The pointer-heavy
//! [`AdjGraph`](crate::scc::AdjGraph) (`Vec<Vec<StateId>>`) scatters each
//! state's successor list in its own heap allocation; this module provides
//! the compressed-sparse-row alternative used underneath all of them:
//!
//! * [`FlatGraph`] — two contiguous `u32` arrays (`offsets`, `targets`);
//!   the successors of state `q` are the slice
//!   `targets[offsets[q]..offsets[q+1]]`. Successor lists are
//!   **deduplicated** (first occurrence kept), which matters for automata:
//!   [`OmegaAutomaton`]'s successor enumeration emits one call per symbol,
//!   so a state whose `k` symbols share targets would otherwise be walked
//!   `k` times per Tarjan pass. Dedup preserves first-occurrence order, so
//!   a DFS over a [`FlatGraph`] visits states in exactly the order it
//!   would over the original graph — SCC numberings are unchanged.
//! * [`FlatAutomaton`] — the flat transition core of one automaton: the
//!   `delta[q·k + s]` table (a straight copy of the automaton's) plus the
//!   deduplicated successor [`FlatGraph`], built once and shared by every
//!   consumer ([`crate::analysis::Analysis`] and every SCC pass it runs,
//!   the minimizer of [`crate::minimize`]).
//!
//! All index arrays are `u32`; the layouts therefore cap at `2³²−1` edges,
//! far beyond any product this workspace builds (the paper-scale automata
//! have thousands of states).

use crate::omega::OmegaAutomaton;
use crate::scc::Successors;
use crate::StateId;

/// A directed graph over states `0..n` in compressed-sparse-row form:
/// the successors of `q` are `targets[offsets[q] .. offsets[q+1]]`,
/// deduplicated, in first-occurrence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatGraph {
    /// `n + 1` row offsets into `targets` (monotone, `offsets[0] == 0`).
    offsets: Vec<u32>,
    /// Concatenated successor lists.
    targets: Vec<StateId>,
}

impl FlatGraph {
    /// Builds a CSR graph over states `0..n` by enumerating each state's
    /// successors with `succs_of`. Duplicate targets within one state's
    /// list are dropped (first occurrence kept), so ad-hoc product
    /// builders can emit one edge per transition without bloating the
    /// Tarjan walks downstream.
    pub fn from_fn<I>(n: usize, mut succs_of: impl FnMut(StateId) -> I) -> Self
    where
        I: IntoIterator<Item = StateId>,
    {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets: Vec<StateId> = Vec::new();
        // Generation-stamped dedup: `seen[t] == q+1` iff `t` was already
        // emitted for the current state `q` — O(1) per edge, no hashing.
        let mut seen = vec![0u32; n];
        offsets.push(0);
        for q in 0..n as StateId {
            let stamp = q + 1;
            for t in succs_of(q) {
                debug_assert!((t as usize) < n, "successor {t} out of range");
                if seen[t as usize] != stamp {
                    seen[t as usize] = stamp;
                    targets.push(t);
                }
            }
            offsets.push(targets.len() as u32);
        }
        FlatGraph { offsets, targets }
    }

    /// Builds the deduplicated successor graph of a flattened
    /// deterministic transition table `delta[q·k + s]` over `n` states
    /// and `k` symbols. Shared by [`FlatAutomaton::of`] and the ad-hoc
    /// product builders (e.g. [`crate::inclusion`]) so every flat delta
    /// gets its CSR graph through one audited path.
    pub fn from_delta(n: usize, k: usize, delta: &[StateId]) -> Self {
        debug_assert_eq!(delta.len(), n * k, "delta table has wrong shape");
        FlatGraph::from_fn(n, |q| {
            let base = q as usize * k;
            delta[base..base + k].to_vec()
        })
    }

    /// Snapshots any [`Successors`] implementation into CSR form
    /// (deduplicated). This is the constructor the analysis layers use to
    /// flatten an [`OmegaAutomaton`] or an
    /// [`AdjGraph`](crate::scc::AdjGraph) once and reuse it across many
    /// restricted SCC passes.
    pub fn from_graph<G: Successors>(graph: &G) -> Self {
        FlatGraph::from_fn(graph.num_states(), |q| {
            let mut v = Vec::new();
            graph.for_each_successor(q, &mut |t| v.push(t));
            v
        })
    }

    /// The successors of `q` as a contiguous slice.
    pub fn successors(&self, q: StateId) -> &[StateId] {
        &self.targets[self.offsets[q as usize] as usize..self.offsets[q as usize + 1] as usize]
    }

    /// Number of (deduplicated) edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }
}

impl Successors for FlatGraph {
    fn num_states(&self) -> usize {
        self.offsets.len() - 1
    }
    fn for_each_successor(&self, q: StateId, f: &mut dyn FnMut(StateId)) {
        for &t in self.successors(q) {
            f(t);
        }
    }
}

/// The flat transition core of one deterministic ω-automaton: a borrowed
/// copy of its `delta[q·k + s]` table plus the deduplicated successor
/// [`FlatGraph`]. Built once per automaton (see
/// [`crate::analysis::Analysis`]) and consumed by every SCC pass instead
/// of re-enumerating `step()` per symbol.
#[derive(Debug, Clone)]
pub struct FlatAutomaton {
    num_states: usize,
    alphabet_len: usize,
    /// Flattened transition table, `delta[q * k + s]`.
    delta: Vec<StateId>,
    /// Deduplicated successor graph over the same states.
    graph: FlatGraph,
}

impl FlatAutomaton {
    /// Flattens `aut` (one pass over its transition table).
    pub fn of(aut: &OmegaAutomaton) -> Self {
        let n = aut.num_states();
        let k = aut.alphabet().len();
        let mut delta = Vec::with_capacity(n * k);
        for q in 0..n as StateId {
            for sym in aut.alphabet().symbols() {
                delta.push(aut.step(q, sym));
            }
        }
        let graph = FlatGraph::from_delta(n, k, &delta);
        FlatAutomaton {
            num_states: n,
            alphabet_len: k,
            delta,
            graph,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size `k`.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len
    }

    /// The successor of `q` under symbol index `s`.
    pub fn step(&self, q: StateId, s: usize) -> StateId {
        self.delta[q as usize * self.alphabet_len + s]
    }

    /// The deduplicated successor graph (the substrate of every SCC
    /// pass).
    pub fn graph(&self) -> &FlatGraph {
        &self.graph
    }
}

impl Successors for FlatAutomaton {
    fn num_states(&self) -> usize {
        self.num_states
    }
    fn for_each_successor(&self, q: StateId, f: &mut dyn FnMut(StateId)) {
        self.graph.for_each_successor(q, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::Acceptance;
    use crate::alphabet::Alphabet;
    use crate::scc::{tarjan_scc, AdjGraph};

    #[test]
    fn csr_matches_adjacency_lists() {
        let adj = AdjGraph {
            succs: vec![vec![1, 2, 1], vec![0], vec![], vec![3, 3]],
        };
        let flat = FlatGraph::from_graph(&adj);
        assert_eq!(flat.num_states(), 4);
        assert_eq!(flat.successors(0), &[1, 2]); // deduped, order kept
        assert_eq!(flat.successors(1), &[0]);
        assert_eq!(flat.successors(2), &[] as &[StateId]);
        assert_eq!(flat.successors(3), &[3]);
        assert_eq!(flat.num_edges(), 4);
    }

    #[test]
    fn scc_decomposition_is_identical_to_the_raw_graph() {
        // Dedup keeps first-occurrence order, so Tarjan must produce the
        // exact same component numbering as on the duplicated graph.
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            5,
            0,
            |q, s| ((q as usize + s.index()) % 5) as StateId,
            Acceptance::inf([1]),
        );
        let flat = FlatAutomaton::of(&aut);
        let raw = tarjan_scc(&aut, None);
        let csr = tarjan_scc(flat.graph(), None);
        assert_eq!(raw.component, csr.component);
        assert_eq!(raw.members, csr.members);
        assert_eq!(raw.has_cycle, csr.has_cycle);
        let allowed: crate::bitset::BitSet = [0usize, 2, 3].into_iter().collect();
        let raw_r = tarjan_scc(&aut, Some(&allowed));
        let csr_r = tarjan_scc(flat.graph(), Some(&allowed));
        assert_eq!(raw_r.component, csr_r.component);
        assert_eq!(raw_r.members, csr_r.members);
    }

    #[test]
    fn flat_step_agrees_with_the_automaton() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| if s == b { (q + 1) % 3 } else { q },
            Acceptance::inf([2]),
        );
        let flat = FlatAutomaton::of(&aut);
        for q in 0..3 {
            for sym in sigma.symbols() {
                assert_eq!(flat.step(q, sym.index()), aut.step(q, sym));
            }
        }
        // Self-loops survive dedup (has_cycle depends on them).
        assert_eq!(flat.graph().successors(0), &[0, 1]);
    }
}

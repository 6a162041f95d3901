//! The flat, cache-friendly graph layout (CSR).
//!
//! Every hot walk of the classification stack — the restricted Tarjan
//! passes of the alternating cycle decomposition, liveness, the
//! condensation, the inclusion product, the fair-cycle search of the
//! model checker — iterates successors of the same graph over and over.
//! [`FlatGraph`] stores them in two contiguous `u32` arrays (`offsets`,
//! `targets`): the successors of state `q` are the slice
//! `targets[offsets[q]..offsets[q+1]]`. Successor lists are
//! **deduplicated** (first occurrence kept), which matters for automata:
//! [`OmegaAutomaton`](crate::omega::OmegaAutomaton)'s successor
//! enumeration emits one call per symbol, so a state whose `k` symbols
//! share targets would otherwise be walked `k` times per Tarjan pass.
//! Dedup preserves first-occurrence order, so a DFS over a [`FlatGraph`]
//! visits states in exactly the order it would over the original graph —
//! SCC numberings are unchanged. [`crate::analysis::Analysis`] builds one
//! per automaton and runs every SCC pass on it.
//!
//! All index arrays are `u32`; the layout therefore caps at `2³²−1` edges,
//! far beyond any product this workspace builds (the paper-scale automata
//! have thousands of states).

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
    /// and `k` symbols: the graph of an automaton's own table for
    /// [`crate::analysis::Analysis`], and of the inclusion product for
    /// [`crate::inclusion`].
    pub fn from_delta(n: usize, k: usize, delta: &[StateId]) -> Self {
        debug_assert_eq!(delta.len(), n * k, "delta table has wrong shape");
        FlatGraph::from_fn(n, |q| {
            let base = q as usize * k;
            delta[base..base + k].iter().copied()
        })
    }

    /// The reverse graph: `q` is a successor of `t` in it exactly when
    /// `t` is a successor of `q` here. Each reversed list is in
    /// increasing source order and, like every list here, free of
    /// duplicates. The live sets close backwards over it.
    pub fn reversed(&self) -> FlatGraph {
        let n = self.num_states();
        let mut offsets = vec![0u32; n + 1];
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for q in 0..n {
            offsets[q + 1] += offsets[q];
        }
        let mut next = offsets.clone();
        let mut targets = vec![0; self.targets.len()];
        for q in 0..n as StateId {
            for &t in self.successors(q) {
                targets[next[t as usize] as usize] = q;
                next[t as usize] += 1;
            }
        }
        FlatGraph { offsets, targets }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::Acceptance;
    use crate::alphabet::Alphabet;
    use crate::analysis::Analysis;
    use crate::omega::OmegaAutomaton;
    use crate::scc::tarjan_scc;

    #[test]
    fn csr_matches_adjacency_lists() {
        let succs: Vec<Vec<StateId>> = vec![vec![1, 2, 1], vec![0], vec![], vec![3, 3]];
        let flat = FlatGraph::from_fn(4, |q| succs[q as usize].clone());
        assert_eq!(flat.num_states(), 4);
        assert_eq!(flat.successors(0), &[1, 2]); // deduped, order kept
        assert_eq!(flat.successors(1), &[0]);
        assert_eq!(flat.successors(2), &[] as &[StateId]);
        assert_eq!(flat.successors(3), &[3]);
        assert_eq!(flat.num_edges(), 4);
        let back = flat.reversed();
        assert_eq!(back.num_states(), 4);
        assert_eq!(back.successors(0), &[1]);
        assert_eq!(back.successors(1), &[0]);
        assert_eq!(back.successors(2), &[0]);
        assert_eq!(back.successors(3), &[3]);
        assert_eq!(back.reversed(), flat);
    }

    #[test]
    fn scc_decomposition_is_identical_to_the_raw_graph() {
        // Dedup keeps first-occurrence order, so the analysis context's
        // Tarjan passes must produce the exact same component numbering
        // as a pass over the automaton's per-symbol enumeration.
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            5,
            0,
            |q, s| ((q as usize + s.index()) % 5) as StateId,
            Acceptance::inf([1]),
        );
        let ctx = Analysis::new_raw(aut.clone());
        let raw = tarjan_scc(&aut, None);
        let csr = ctx.sccs(None);
        assert_eq!(raw.component, csr.component);
        assert_eq!(raw.members, csr.members);
        assert_eq!(raw.has_cycle, csr.has_cycle);
        let allowed: crate::bitset::BitSet = [0usize, 2, 3].into_iter().collect();
        let raw_r = tarjan_scc(&aut, Some(&allowed));
        let csr_r = ctx.sccs(Some(&allowed));
        assert_eq!(raw_r.component, csr_r.component);
        assert_eq!(raw_r.members, csr_r.members);
    }

    #[test]
    fn self_loops_survive_dedup() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| if s == b { (q + 1) % 3 } else { q },
            Acceptance::inf([2]),
        );
        let aut = &aut;
        let flat = FlatGraph::from_fn(3, |q| sigma.symbols().map(move |s| aut.step(q, s)));
        // has_cycle depends on them.
        assert_eq!(flat.successors(0), &[0, 1]);
        assert_eq!(flat.successors(2), &[2, 0]);
    }
}

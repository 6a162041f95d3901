//! Partition-refinement minimization of deterministic ω-automata.
//!
//! [`minimize`] computes the greatest acceptance-respecting bisimulation
//! of a deterministic [`OmegaAutomaton`] by Hopcroft-style partition
//! refinement and returns the quotient automaton together with the full
//! class structure ([`Minimization`]).
//!
//! **Seed partition.** States are first split by their *atom signature* —
//! membership in each acceptance atom set (for a Streett condition
//! `⋀ᵢ (Inf Rᵢ → Inf Pᵢ)` these are exactly the `Rᵢ`/`Pᵢ` sets, so the
//! seed is Streett-pair-respecting). Two states with the same signature
//! contribute identically to every `Inf`/`Fin` atom of any run passing
//! through them.
//!
//! **Refinement.** A block `B` is split by `(C, s)` when only part of `B`
//! steps into `C` under symbol `s`. At the fixpoint, any two states of a
//! block induce runs with identical atom-visit sequences on every input
//! word, hence the same acceptance verdict: the quotient is
//! language-equal to the input. This is the classical soundness argument
//! for membership-based ω-acceptance (see also `OmegaAutomaton::reduce`,
//! the naive Moore-style refinement kept as a differential oracle — both
//! compute the same partition, this one in `O(k·n·log n)` with the
//! smaller-half worklist instead of `O(k·n²)` signature hashing).
//!
//! **Canonical numbering.** Quotient classes are renumbered by BFS from
//! the initial class in symbol order, so minimization is *structurally*
//! idempotent: `minimize(minimize(a).quotient).quotient ==
//! minimize(a).quotient` as plain `==` on automata, not merely up to
//! isomorphism. Unreachable states are dropped (they never affect the
//! language).
//!
//! The hierarchy verdicts of the paper (safety, guarantee, obligation,
//! recurrence, persistence, reactivity) are properties of the recognized
//! language, so they are invariant under this quotient — which is what
//! lets [`crate::analysis::Analysis`] run every classification on the
//! quotient first (the "quotient-first pipeline").
//!
//! **Finite words.** [`crate::dfa::Dfa::minimize`] runs the same
//! refinement on the DFA read as the ω-automaton `Inf(F)`: its one atom
//! is the accepting set, so the seed partition is accepting versus
//! non-accepting and the quotient is the Myhill–Nerode one.

use std::collections::HashMap;

use crate::acceptance::Acceptance;
use crate::alphabet::Symbol;
use crate::bitset::BitSet;
use crate::omega::OmegaAutomaton;
use crate::StateId;

/// The result of [`minimize`]: the canonical quotient plus the mapping
/// between raw states and quotient classes.
#[derive(Debug, Clone)]
pub struct Minimization {
    /// The quotient automaton (trim, canonically BFS-numbered,
    /// language-equal to the input).
    pub quotient: OmegaAutomaton,
    /// For each raw state, its quotient class — `None` for states
    /// unreachable from the initial state (they have no class).
    pub class_of: Vec<Option<StateId>>,
    /// For each quotient class, the sorted raw states it merges.
    pub classes: Vec<Vec<StateId>>,
}

impl Minimization {
    /// Whether the quotient has strictly fewer states than the input
    /// (either refinement merged states or trimming dropped unreachable
    /// ones).
    pub fn reduced(&self) -> bool {
        self.quotient.num_states() < self.class_of.len()
    }
}

/// Minimizes `aut` by acceptance-aware partition refinement. See the
/// module docs for the algorithm and its guarantees.
pub fn minimize(aut: &OmegaAutomaton) -> Minimization {
    let n_raw = aut.num_states();
    let k = aut.alphabet().len();

    // --- 1. Dense BFS numbering of the reachable part. -----------------
    let mut dense = vec![StateId::MAX; n_raw];
    let mut order: Vec<StateId> = Vec::with_capacity(n_raw);
    dense[aut.initial() as usize] = 0;
    order.push(aut.initial());
    let mut head = 0;
    while head < order.len() {
        let q = order[head];
        head += 1;
        for sym in aut.alphabet().symbols() {
            let t = aut.step(q, sym);
            if dense[t as usize] == StateId::MAX {
                dense[t as usize] = order.len() as StateId;
                order.push(t);
            }
        }
    }
    let n = order.len();

    // Dense transition table over reachable states only.
    let mut delta = vec![0u32; n * k];
    for (i, &q) in order.iter().enumerate() {
        for s in 0..k {
            delta[i * k + s] = dense[aut.step(q, Symbol(s as u8)) as usize];
        }
    }

    // --- 2. Seed partition: atom-membership signatures. -----------------
    let atoms = aut.acceptance().atom_sets();
    let mut block_of = vec![0usize; n];
    let mut sig_ids: HashMap<Vec<bool>, usize> = HashMap::new();
    for (i, &q) in order.iter().enumerate() {
        let sig: Vec<bool> = atoms.iter().map(|s| s.contains(q as usize)).collect();
        let next = sig_ids.len();
        block_of[i] = *sig_ids.entry(sig).or_insert(next);
    }
    let mut num_blocks = sig_ids.len();
    drop(sig_ids);

    // Partition as a permutation of 0..n grouped by block, with per-block
    // [start, end) ranges and a per-block count of marked states.
    let mut elems: Vec<u32> = (0..n as u32).collect();
    elems.sort_by_key(|&q| block_of[q as usize]);
    let mut pos = vec![0u32; n];
    for (i, &q) in elems.iter().enumerate() {
        pos[q as usize] = i as u32;
    }
    let mut start = vec![0usize; n]; // capacity for up to n blocks
    let mut end = vec![0usize; n];
    for (i, &q) in elems.iter().enumerate() {
        let b = block_of[q as usize];
        if i == 0 || block_of[elems[i - 1] as usize] != b {
            start[b] = i;
        }
        end[b] = i + 1;
    }
    let mut marked = vec![0usize; n];

    // --- 3. Per-symbol predecessor lists (CSR). -------------------------
    // preds of t under s = { q | delta[q·k+s] == t }, flattened per symbol.
    let mut pre_off = vec![0u32; k * (n + 1)];
    for q in 0..n {
        for s in 0..k {
            pre_off[s * (n + 1) + delta[q * k + s] as usize + 1] += 1;
        }
    }
    for s in 0..k {
        for t in 0..n {
            pre_off[s * (n + 1) + t + 1] += pre_off[s * (n + 1) + t];
        }
    }
    let mut preds = vec![0u32; k * n];
    let mut fill = pre_off.clone();
    for q in 0..n {
        for s in 0..k {
            let t = delta[q * k + s] as usize;
            let slot = &mut fill[s * (n + 1) + t];
            preds[s * n + *slot as usize] = q as u32;
            *slot += 1;
        }
    }

    // --- 4. Hopcroft worklist refinement. -------------------------------
    // Every (seed block, symbol) starts in the worklist; after a split the
    // smaller half (or both, if the split block was queued) is added.
    let mut work: Vec<(usize, usize)> = Vec::new();
    let mut in_work = vec![false; n * k];
    for b in 0..num_blocks {
        for s in 0..k {
            in_work[b * k + s] = true;
            work.push((b, s));
        }
    }
    let mut touched: Vec<usize> = Vec::new();
    while let Some((splitter, s)) = work.pop() {
        in_work[splitter * k + s] = false;
        // Snapshot the splitter: it may itself be split below.
        let members: Vec<u32> = elems[start[splitter]..end[splitter]].to_vec();
        // Mark all s-predecessors of the splitter. Delta is functional,
        // so no state is marked twice in one pass.
        for &t in &members {
            let lo = pre_off[s * (n + 1) + t as usize] as usize;
            let hi = pre_off[s * (n + 1) + t as usize + 1] as usize;
            for &q in &preds[s * n + lo..s * n + hi] {
                let b = block_of[q as usize];
                if marked[b] == 0 {
                    touched.push(b);
                }
                // Swap q into the marked prefix of its block.
                let dst = start[b] + marked[b];
                let src = pos[q as usize] as usize;
                elems.swap(src, dst);
                pos[elems[src] as usize] = src as u32;
                pos[elems[dst] as usize] = dst as u32;
                marked[b] += 1;
            }
        }
        for &b in &touched {
            let m = marked[b];
            marked[b] = 0;
            if m == end[b] - start[b] {
                continue; // every state stepped into the splitter
            }
            // Split off the marked prefix as a new block.
            let nb = num_blocks;
            num_blocks += 1;
            start[nb] = start[b];
            end[nb] = start[b] + m;
            start[b] += m;
            for i in start[nb]..end[nb] {
                block_of[elems[i] as usize] = nb;
            }
            for t in 0..k {
                if in_work[b * k + t] {
                    in_work[nb * k + t] = true;
                    work.push((nb, t));
                } else {
                    // Queue the smaller half — Hopcroft's trick.
                    let small = if end[nb] - start[nb] <= end[b] - start[b] {
                        nb
                    } else {
                        b
                    };
                    in_work[small * k + t] = true;
                    work.push((small, t));
                }
            }
        }
        touched.clear();
    }

    // --- 5. Canonical BFS renumbering of the blocks. --------------------
    let mut canon = vec![StateId::MAX; num_blocks];
    let mut block_order: Vec<usize> = Vec::with_capacity(num_blocks);
    canon[block_of[0]] = 0; // dense state 0 is the initial state
    block_order.push(block_of[0]);
    let mut head = 0;
    while head < block_order.len() {
        let b = block_order[head];
        head += 1;
        let rep = elems[start[b]] as usize;
        for s in 0..k {
            let tb = block_of[delta[rep * k + s] as usize];
            if canon[tb] == StateId::MAX {
                canon[tb] = block_order.len() as StateId;
                block_order.push(tb);
            }
        }
    }
    debug_assert_eq!(block_order.len(), num_blocks, "all blocks reachable");

    // --- 6. Build the quotient and the class maps. ----------------------
    let mut qdelta = vec![0 as StateId; num_blocks * k];
    for (c, &b) in block_order.iter().enumerate() {
        let rep = elems[start[b]] as usize;
        for s in 0..k {
            qdelta[c * k + s] = canon[block_of[delta[rep * k + s] as usize]];
        }
    }
    let acceptance: Acceptance = aut.acceptance().map_sets(&|set: &BitSet| {
        set.iter()
            .filter(|&q| dense[q] != StateId::MAX)
            .map(|q| canon[block_of[dense[q] as usize]] as usize)
            .collect()
    });
    let quotient = OmegaAutomaton::build(
        aut.alphabet(),
        num_blocks,
        0,
        |q, s| qdelta[q as usize * k + s.index()],
        acceptance,
    );

    let mut class_of = vec![None; n_raw];
    let mut classes = vec![Vec::new(); num_blocks];
    for q in 0..n_raw {
        if dense[q] != StateId::MAX {
            let c = canon[block_of[dense[q] as usize]];
            class_of[q] = Some(c);
            classes[c as usize].push(q as StateId);
        }
    }
    // BFS visit order is not state order; keep members sorted for
    // deterministic reporting (lint AUT004 prints these).
    for members in &mut classes {
        members.sort_unstable();
    }

    Minimization {
        quotient,
        class_of,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::random::random_streett;
    use crate::random::rng::{Rng, SeedableRng, StdRng};

    fn sigma() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Two glued copies of a 2-state automaton collapse to the 2-state
    /// original, with the right class structure.
    #[test]
    fn merges_glued_copies() {
        let sigma = sigma();
        let b = sigma.symbol("b").unwrap();
        // A 2-state flip-flop (b toggles) glued to a mirror copy {2,3}:
        // a drifts from copy one into the mirror, so all four states are
        // reachable, and 0 ≅ 2, 1 ≅ 3.
        let aut = OmegaAutomaton::build(
            &sigma,
            4,
            0,
            |q, s| {
                if s == b {
                    [1, 0, 3, 2][q as usize] // toggle within the copy
                } else {
                    [2, 3, 2, 3][q as usize] // drift into the mirror
                }
            },
            Acceptance::inf([1, 3]),
        );
        let min = minimize(&aut);
        assert_eq!(min.quotient.num_states(), 2);
        assert!(min.reduced());
        assert_eq!(min.classes, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(min.class_of, vec![Some(0), Some(1), Some(0), Some(1)]);
        assert!(min.quotient.equivalent(&aut));
    }

    /// Unreachable states are dropped and get no class.
    #[test]
    fn drops_unreachable_states() {
        let sigma = sigma();
        let aut = OmegaAutomaton::build(&sigma, 3, 0, |_, _| 0, Acceptance::inf([0, 2]));
        let min = minimize(&aut);
        assert_eq!(min.quotient.num_states(), 1);
        assert_eq!(min.class_of, vec![Some(0), None, None]);
        assert_eq!(min.classes, vec![vec![0]]);
        assert!(min.reduced());
    }

    /// Hopcroft agrees with the Moore-refinement oracle `reduce()` on the
    /// number of classes, and the quotients are language-equal, across
    /// random Streett automata.
    #[test]
    fn agrees_with_moore_oracle() {
        let sigma = sigma();
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for case in 0..120 {
            let n = rng.gen_range(2..=24usize);
            let k = rng.gen_range(1..=2usize);
            let (aut, _) = random_streett(&mut rng, &sigma, n, k, 0.3);
            let min = minimize(&aut);
            let moore = aut.reduce();
            assert_eq!(
                min.quotient.num_states(),
                moore.num_states(),
                "case {case}: class counts differ"
            );
            assert!(
                min.quotient.equivalent(&aut),
                "case {case}: quotient changed the language"
            );
        }
    }

    /// Structural idempotence: minimizing a quotient returns it verbatim.
    #[test]
    fn is_structurally_idempotent() {
        let sigma = sigma();
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..80 {
            let n = rng.gen_range(2..=20usize);
            let (aut, _) = random_streett(&mut rng, &sigma, n, 1, 0.35);
            let once = minimize(&aut).quotient;
            let twice = minimize(&once);
            assert_eq!(once, twice.quotient, "case {case}");
            assert!(!twice.reduced(), "case {case}: quotient re-reduced");
        }
    }

    /// Every class is atom-signature homogeneous (the seed partition is
    /// respected by all refinement steps).
    #[test]
    fn classes_respect_atom_signatures() {
        let sigma = sigma();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let n = rng.gen_range(2..=16usize);
            let (aut, _) = random_streett(&mut rng, &sigma, n, 2, 0.3);
            let atoms = aut.acceptance().atom_sets();
            let min = minimize(&aut);
            for members in &min.classes {
                let sig = |q: StateId| -> Vec<bool> {
                    atoms.iter().map(|s| s.contains(q as usize)).collect()
                };
                let first = sig(members[0]);
                assert!(members.iter().all(|&q| sig(q) == first));
            }
        }
    }
}

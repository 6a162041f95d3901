//! Exact semantic classification of deterministic ω-automata into the
//! safety–progress hierarchy (the paper's Problem 5.1).
//!
//! Given a complete deterministic ω-automaton `M`, the full verdict
//! [`classify`] decides in which classes the *language* `Π = L(M)` lies:
//!
//! * **safety** — `Π = A(Pref(Π))`: no reachable rejecting cycle lies in
//!   the live set (one accepting-cycle-kernel query, see
//!   [`Analysis::is_safety`]);
//! * **guarantee** — the complement is safety;
//! * **recurrence** — Wagner/Landweber: no accessible cycle pair `J ⊆ A`
//!   with `J` accepting and `A` rejecting;
//! * **persistence** — dually, no rejecting cycle inside an accepting one;
//! * **obligation** — both recurrence and persistence (equivalently: all
//!   cycles within each reachable SCC have the same acceptance status);
//! * **reactivity** — no chain `B ⊆ J ⊆ A` with `B, A` rejecting and `J`
//!   accepting characterizes *simple* reactivity. Every ω-regular language
//!   sits at some finite level of the reactivity hierarchy, and the
//!   verdict carries that exact level and, for obligations, the `Obl_n`
//!   level.
//!
//! Every query runs on an [`Analysis`] context; this module holds the
//! verdict type, the batch front ends and the alternating cycle
//! decomposition behind the chain queries.
//!
//! # The alternating cycle decomposition
//!
//! The chain conditions quantify over *all* accessible cycles, of which
//! there can be exponentially many. Whether a cycle is accepting depends
//! only on the set of states it visits — its *loop*. The alternating
//! cycle decomposition (ACD; Casares, Colcombet & Fijalkow, ICALP 2021)
//! orders the loops that matter into a forest:
//!
//! * its roots are the maximal loops, the cycle-bearing SCCs of the
//!   reachable graph;
//! * the children of a node are the maximal loops inside it whose
//!   acceptance status is the opposite of its own.
//!
//! A descending chain of loops with alternating statuses runs down one
//! branch (each loop lies inside a child of the node above it), so every
//! chain condition is read off two numbers: the depths `D_rej` and
//! `D_acc` of the deepest rejecting and the deepest accepting node, with
//! the roots at depth 0.
//!
//! * recurrence ⇔ no accepting node below depth 0;
//! * persistence ⇔ no rejecting node below depth 0;
//! * simple reactivity ⇔ `D_rej < 2`;
//! * the reactivity index is the number of rejecting loops on the chain
//!   from a root down to the deepest rejecting node, `⌊D_rej/2⌋ + 1`
//!   (1 when no node is rejecting), and the Rabin index is the same
//!   formula on `D_acc`. So the index is 1 exactly for simple
//!   reactivity, and the Rabin index of a language is the reactivity
//!   index of its complement, whose decomposition is this one with
//!   every status flipped.
//!
//! The children of a node are regions of the accepting-cycle kernel: for
//! each disjunct of [`decompose`] of the children's condition, [`refine`]
//! run from the restriction the node is an SCC of, minus the disjunct's
//! `avoid` set, returns the maximal loops inside the node that satisfy
//! the disjunct. The roots' restriction is the reachable set, and every
//! `avoid` and cut is a union of acceptance atoms, so every restriction
//! asked for is `reachable − (union of atoms)`: a point of the lattice of
//! atom subsets, shared with the kernel's safety, guarantee and liveness
//! queries through [`Analysis::sccs`]. The decomposition therefore never
//! takes more SCC passes than that lattice has points, visits only the
//! points refinement reaches, and takes any number of atoms. The subtree
//! below a loop depends only on the loop, so it is computed once per
//! distinct region.

use crate::acceptance::Acceptance;
use crate::analysis::Analysis;
use crate::bitset::BitSet;
use crate::emptiness::{decompose, refine, RabinDisjunct};
use crate::omega::OmegaAutomaton;
use crate::scc::SccDecomposition;
use std::collections::HashMap;
use std::sync::Arc;

/// The verdict of [`classify`]: membership of the automaton's language in
/// each class of the hierarchy, plus the exact hierarchy indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// `Π = A(Φ)` for some finitary `Φ` (topologically closed, Π₁).
    pub is_safety: bool,
    /// `Π = E(Φ)` (open, Σ₁).
    pub is_guarantee: bool,
    /// Finite boolean combination of safety and guarantee properties
    /// (Δ₂ = Π₂ ∩ Σ₂).
    pub is_obligation: bool,
    /// `Π = R(Φ)` (G_δ, Π₂) — deterministic-Büchi realizable.
    pub is_recurrence: bool,
    /// `Π = P(Φ)` (F_σ, Σ₂) — deterministic-co-Büchi realizable.
    pub is_persistence: bool,
    /// Simple reactivity: `R(Φ) ∪ P(Ψ)` — a single Streett pair suffices.
    pub is_simple_reactivity: bool,
    /// Minimal `n` such that the language is an intersection of `n` simple
    /// obligation properties, if it is an obligation property at all.
    pub obligation_index: Option<usize>,
    /// Minimal `n` such that the language is an intersection of `n` simple
    /// reactivity properties (every ω-regular language has one).
    pub reactivity_index: usize,
}

impl Classification {
    /// The most specific class name, for display purposes.
    pub fn strictest_class_name(&self) -> &'static str {
        if self.is_safety && self.is_guarantee {
            "safety ∩ guarantee"
        } else if self.is_safety {
            "safety"
        } else if self.is_guarantee {
            "guarantee"
        } else if self.is_obligation {
            "obligation"
        } else if self.is_recurrence {
            "recurrence"
        } else if self.is_persistence {
            "persistence"
        } else if self.is_simple_reactivity {
            "simple reactivity"
        } else {
            "reactivity"
        }
    }

    /// The Borel-level name used in the paper's first-order
    /// characterization: Π₁/Σ₁/Δ₂/Π₂/Σ₂/Δ₃.
    pub fn borel_name(&self) -> &'static str {
        if self.is_safety && self.is_guarantee {
            "Π₁ ∩ Σ₁"
        } else if self.is_safety {
            "Π₁"
        } else if self.is_guarantee {
            "Σ₁"
        } else if self.is_obligation {
            "Δ₂"
        } else if self.is_recurrence {
            "Π₂"
        } else if self.is_persistence {
            "Σ₂"
        } else {
            "Δ₃"
        }
    }
}

/// Fully classifies the language of `aut` in the safety–progress hierarchy.
///
/// This is a thin wrapper over the full verdict of
/// [`Analysis::classification`]; build an `Analysis` directly to share
/// the underlying caches across further queries.
pub fn classify(aut: &OmegaAutomaton) -> Classification {
    Analysis::new(aut.clone()).classification().clone()
}

/// The obligation index: the minimal `n` such that the language —
/// **assumed** to be an obligation property — is an intersection of `n`
/// simple obligation properties `A(Φᵢ) ∪ E(Ψᵢ)` (the paper's `Obl_n`
/// sub-hierarchy), computed by DP over the condensation DAG.
/// `comp_succs`/`status` follow Tarjan's reverse topological numbering
/// (successors have smaller indices); `status[c]` is `Some(accepting)` for
/// components with a cycle.
///
/// For obligation languages every reachable SCC is *homogeneous* (all its
/// cycles share one acceptance status), so acceptance of a run depends only
/// on the SCC it settles in, and the index is governed by the status
/// alternations along paths of the SCC condensation. Writing a path's
/// settled-SCC statuses as an alternating word over {G, B}, the CNF size is
/// the number of G→B transitions **with a virtual leading G** (a path that
/// starts bad pays for the entry): `[G,B,G] ↦ 1` (e.g. `□a ∨ ◇c`),
/// `[B,G] ↦ 1` (`◇b`), `[B,G,B] ↦ 2` (`□¬c ∧ ◇b`, which provably has no
/// `A ∪ E` form), `[G,(B,G)^k] ↦ k` (the `Obl_k` witness family). This is
/// cross-validated against the constructive `Obl₁` decomposition in
/// `hierarchy-topology`.
///
/// Returns at least 1 (∅ and `Σ^ω` are trivially `Obl₁`).
pub(crate) fn obligation_index_from_condensation(
    comp_succs: &[Vec<usize>],
    status: &[Option<bool>],
    init: usize,
) -> usize {
    let n_comp = status.len();
    // DP in topological order (increasing index = successors first):
    // down[c][phase] = max number of good→bad crossings on any path starting
    // at component c, where phase records the status of the previously seen
    // non-trivial SCC (0 = good — also the virtual initial status, 1 = bad).
    let mut down = vec![[0usize; 2]; n_comp];
    for c in 0..n_comp {
        for phase in 0..2 {
            // Entering component c in `phase`.
            let (gain, next_phase) = match status[c] {
                Some(false) if phase == 0 => (1, 1), // good → bad crossing
                Some(false) => (0, 1),
                Some(true) => (0, 0),
                None => (0, phase),
            };
            let best_below = comp_succs[c]
                .iter()
                .map(|&s| down[s][next_phase])
                .max()
                .unwrap_or(0);
            down[c][phase] = gain + best_below;
        }
    }
    down[init][0].max(1)
}

/// The depths of the deepest rejecting and the deepest accepting node of
/// the alternating cycle decomposition of `aut`'s reachable part (see the
/// module docs), as `[rejecting, accepting]` with the roots at depth 0;
/// `None` when no node has that status. Every SCC decomposition is asked
/// of `sccs`.
pub(crate) fn acd_depths(
    aut: &OmegaAutomaton,
    reachable: &BitSet,
    sccs: impl FnMut(&BitSet) -> Arc<SccDecomposition>,
) -> [Option<usize>; 2] {
    let acc = aut.acceptance();
    let n = aut.num_states();
    let mut acd = Acd {
        acc,
        loops: [decompose(&acc.negated(), n), decompose(acc, n)],
        sccs,
        memo: HashMap::new(),
    };
    // The roots: every region of the reachable graph (nothing is cut).
    let mut roots = Vec::new();
    refine::<()>(
        reachable.clone(),
        None,
        &mut acd.sccs,
        |_| BitSet::new(),
        |root, _| {
            roots.push(root);
            None
        },
    );
    let mut deepest = [None, None];
    for root in roots {
        let below = acd.depths(root, reachable);
        deepest = [0, 1].map(|s| deepest[s].max(below[s]));
    }
    deepest
}

/// The alternation index read off the depth of the deepest node of one
/// status: the loops of that status on the chain down to it,
/// `⌊depth/2⌋ + 1`, or 1 when no node has the status (the module docs'
/// formula).
pub(crate) fn alternation_index(deepest: Option<usize>) -> usize {
    deepest.map_or(1, |d| d / 2 + 1)
}

/// The walk behind [`acd_depths`], memoized per region.
struct Acd<'a, F> {
    acc: &'a Acceptance,
    /// `loops[s]`: the decomposition of the condition a loop of status
    /// `s` (0 rejecting, 1 accepting) satisfies.
    loops: [Vec<RabinDisjunct>; 2],
    sccs: F,
    memo: HashMap<BitSet, [Option<usize>; 2]>,
}

impl<F: FnMut(&BitSet) -> Arc<SccDecomposition>> Acd<'_, F> {
    /// The depths of the deepest rejecting and accepting node of the
    /// subtree rooted at `region`, an SCC of `G[within]`, relative to it.
    fn depths(&mut self, region: BitSet, within: &BitSet) -> [Option<usize>; 2] {
        if let Some(&hit) = self.memo.get(&region) {
            return hit;
        }
        let status = usize::from(self.acc.accepts_infinity_set(&region));
        let mut children: Vec<(BitSet, BitSet)> = Vec::new();
        for d in &self.loops[1 - status] {
            if region
                .difference(&d.avoid)
                .is_subset(&d.violations(&region))
            {
                continue; // no sub-loop of the region satisfies `d`
            }
            refine::<()>(
                within.difference(&d.avoid),
                Some(&region),
                &mut self.sccs,
                |r| d.violations(r),
                |child, x| {
                    children.push((child, x.clone()));
                    None
                },
            );
        }
        let mut out = [None, None];
        out[status] = Some(0);
        for (i, (child, x)) in children.iter().enumerate() {
            // Only the maximal regions are children (and each once).
            let dominated = children.iter().enumerate().any(|(j, (other, _))| {
                j != i && child.is_subset(other) && (j < i || child != other)
            });
            if !dominated {
                let below = self.depths(child.clone(), x);
                out = [0, 1].map(|s| out[s].max(below[s].map(|d| d + 1)));
            }
        }
        self.memo.insert(region, out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::StateId;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Last-symbol tracker over {a,b}: state 0 after a, state 1 after b.
    fn last_sym(sigma: &Alphabet, acc: Acceptance) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(sigma, 2, 0, |_, s| if s == b { 1 } else { 0 }, acc)
    }

    /// □a ("never b"): safety.
    fn always_a(sigma: &Alphabet) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::fin([1]),
        )
    }

    /// ◇b ("eventually b"): guarantee.
    fn eventually_b(sigma: &Alphabet) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::inf([1]),
        )
    }

    #[test]
    fn safety_of_always_a() {
        let sigma = ab();
        let m = always_a(&sigma);
        let c = classify(&m);
        assert!(c.is_safety);
        assert!(!c.is_guarantee);
        assert!(c.is_obligation);
        assert!(c.is_recurrence && c.is_persistence && c.is_simple_reactivity);
        assert_eq!(c.strictest_class_name(), "safety");
        assert_eq!(c.borel_name(), "Π₁");
        assert_eq!(c.obligation_index, Some(1));
        assert_eq!(c.reactivity_index, 1);
    }

    #[test]
    fn guarantee_of_eventually_b() {
        let sigma = ab();
        let m = eventually_b(&sigma);
        let c = classify(&m);
        assert!(!c.is_safety);
        assert!(c.is_guarantee);
        assert!(c.is_obligation);
        assert_eq!(c.strictest_class_name(), "guarantee");
        assert_eq!(c.borel_name(), "Σ₁");
        assert_eq!(c.obligation_index, Some(1));
    }

    #[test]
    fn recurrence_of_inf_b() {
        let sigma = ab();
        let m = last_sym(&sigma, Acceptance::inf([1])); // □◇b
        let c = classify(&m);
        assert!(!c.is_safety && !c.is_guarantee && !c.is_obligation);
        assert!(c.is_recurrence);
        assert!(!c.is_persistence);
        assert!(c.is_simple_reactivity);
        assert_eq!(c.strictest_class_name(), "recurrence");
        assert_eq!(c.borel_name(), "Π₂");
        assert_eq!(c.obligation_index, None);
        assert_eq!(c.reactivity_index, 1);
    }

    #[test]
    fn persistence_of_ev_alw_a() {
        let sigma = ab();
        let m = last_sym(&sigma, Acceptance::fin([1])); // ◇□a
        let c = classify(&m);
        assert!(!c.is_recurrence);
        assert!(c.is_persistence);
        assert_eq!(c.strictest_class_name(), "persistence");
        assert_eq!(c.borel_name(), "Σ₂");
    }

    #[test]
    fn trivial_languages_are_in_every_class() {
        let sigma = ab();
        for m in [
            OmegaAutomaton::empty(&sigma),
            OmegaAutomaton::universal(&sigma),
        ] {
            let c = classify(&m);
            assert!(c.is_safety && c.is_guarantee && c.is_obligation);
            assert!(c.is_recurrence && c.is_persistence && c.is_simple_reactivity);
            assert_eq!(c.strictest_class_name(), "safety ∩ guarantee");
        }
    }

    #[test]
    fn simple_obligation_proper() {
        // □a ∨ ◇c over {a,b,c}: obligation but neither safety nor
        // guarantee; inside both recurrence and persistence.
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let cc = sigma.symbol("c").unwrap();
        // states: 0 = only a so far; 1 = saw b before any c; 2 = saw c.
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| {
                if q == 2 || s == cc {
                    2
                } else if q == 1 || s == b {
                    1
                } else {
                    0
                }
            },
            Acceptance::fin([1, 2]).or(Acceptance::inf([2])),
        );
        let c = classify(&m);
        assert!(!c.is_safety && !c.is_guarantee);
        assert!(c.is_obligation);
        assert!(c.is_recurrence && c.is_persistence);
        assert_eq!(c.strictest_class_name(), "obligation");
        assert_eq!(c.borel_name(), "Δ₂");
        assert_eq!(c.obligation_index, Some(1));
    }

    #[test]
    fn strong_fairness_is_strict_simple_reactivity() {
        // □◇b ∨ ◇□(¬a) over {a,b,c}, tracking the last symbol: a simple
        // reactivity property in neither recurrence nor persistence.
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            move |_, s| {
                if s == a {
                    0
                } else if s == b {
                    1
                } else {
                    2
                }
            },
            Acceptance::inf([1]).or(Acceptance::fin([0])),
        );
        let c = classify(&m);
        assert!(!c.is_recurrence && !c.is_persistence && !c.is_obligation);
        assert!(c.is_simple_reactivity);
        assert_eq!(c.strictest_class_name(), "simple reactivity");
        assert_eq!(c.borel_name(), "Δ₃");
        assert_eq!(c.reactivity_index, 1);
    }

    #[test]
    fn safety_closure_is_closed_and_contains() {
        let sigma = ab();
        let m = eventually_b(&sigma); // ◇b, not safety
        let cl = Analysis::new(m.clone()).safety_closure();
        assert!(classify(&cl).is_safety);
        assert!(m.is_subset_of(&cl));
        // cl(◇b) = Σ^ω since every finite word extends into ◇b.
        assert!(cl.is_universal());
        // Closure of a safety property is itself.
        let s = always_a(&sigma);
        assert!(Analysis::new(s.clone()).safety_closure().equivalent(&s));
    }

    #[test]
    fn lower_classes_are_inside_higher_ones() {
        let sigma = ab();
        for m in [always_a(&sigma), eventually_b(&sigma)] {
            let c = classify(&m);
            assert!(c.is_recurrence && c.is_persistence);
            assert!(c.is_obligation && c.is_simple_reactivity);
        }
    }

    #[test]
    fn reactivity_index_two() {
        // Two independent Streett pairs over {a,b,c,d}, tracking the last
        // symbol: (Inf{a-state} ∨ Fin{b-state}) ∧ (Inf{c-state} ∨
        // Fin{d-state}).
        let sigma = Alphabet::new(["a", "b", "c", "d"]).unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            4,
            0,
            |_, s| s.index() as StateId,
            Acceptance::inf([0])
                .or(Acceptance::fin([1]))
                .and(Acceptance::inf([2]).or(Acceptance::fin([3]))),
        );
        let c = classify(&m);
        assert!(!c.is_simple_reactivity);
        assert_eq!(c.reactivity_index, 2);
        assert_eq!(c.strictest_class_name(), "reactivity");
    }

    #[test]
    fn obligation_index_two() {
        // Over {a, d}: "reach an a-block, then after a d, reach another a"…
        // Simplest Obl₂-style shape: states 0(B) -a-> 1(G) -d-> 2(B) -a-> 3(G),
        // self-loops keep status; acceptance = settle in 1 or 3.
        let sigma = Alphabet::new(["a", "d"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            4,
            0,
            move |q, s| match (q, s == a) {
                (0, true) => 1,
                (0, false) => 0,
                (1, true) => 1,
                (1, false) => 2,
                (2, true) => 3,
                (2, false) => 2,
                (3, _) => 3,
                _ => unreachable!(),
            },
            Acceptance::fin([0, 2]),
        );
        let c = classify(&m);
        assert!(c.is_obligation);
        assert_eq!(c.obligation_index, Some(2));
    }

    #[test]
    fn acd_depths_direct() {
        let sigma = ab();
        let depths = |m: &OmegaAutomaton| {
            acd_depths(m, &m.reachable_states(), |x| Arc::new(m.sccs(Some(x))))
        };
        // □◇b: the root {0,1} is accepting, its one child, the rejecting
        // loop {0}, sits at depth 1; no accepting loop lies inside a
        // rejecting one.
        let m = last_sym(&sigma, Acceptance::inf([1]));
        assert_eq!(depths(&m), [Some(1), Some(0)]);
        // ◇□a is the dual.
        assert_eq!(depths(&m.complement()), [Some(0), Some(1)]);
        // Both roots of □a are childless: {0} accepting, {1} rejecting.
        assert_eq!(depths(&always_a(&sigma)), [Some(0), Some(0)]);
        assert_eq!(depths(&OmegaAutomaton::empty(&sigma)), [Some(0), None]);
        assert_eq!(alternation_index(None), 1);
        assert_eq!(alternation_index(Some(0)), 1);
        assert_eq!(alternation_index(Some(1)), 1);
        assert_eq!(alternation_index(Some(2)), 2);
        assert_eq!(alternation_index(Some(3)), 2);
        assert_eq!(alternation_index(Some(4)), 3);
    }
}

#[cfg(test)]
mod rabin_index_tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::StateId;

    #[test]
    fn rabin_index_duality() {
        // □◇b has Rabin index 1 (it is Büchi = one Rabin pair), and so
        // does its complement ◇□a; the reactivity-2 style condition has
        // Rabin index 2.
        let sigma = Alphabet::new(["a", "b", "c", "d"]).unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            4,
            0,
            |_, s| s.index() as StateId,
            Acceptance::inf([1]),
        );
        let rabin = |aut: &OmegaAutomaton| Analysis::new(aut.clone()).rabin_index();
        assert_eq!(rabin(&m), 1);
        assert_eq!(rabin(&m.complement()), 1);
        let two_pairs = m.with_acceptance(
            Acceptance::inf([0])
                .or(Acceptance::fin([1]))
                .and(Acceptance::inf([2]).or(Acceptance::fin([3]))),
        );
        // Streett-2 condition: its complement is Rabin-2, so the Rabin
        // index of the complement equals the reactivity index of the
        // original.
        assert_eq!(
            rabin(&two_pairs.complement()),
            classify(&two_pairs).reactivity_index
        );
    }

    /// Regression: the 3-state clique over {a,b,c} (letter `i` goes to
    /// state `i`) with min-even parity on priorities 0, 1, 2. Its loops
    /// nest accepting {0,1,2} ⊇ rejecting {1,2} ⊇ accepting {2}, a chain
    /// one Rabin pair cannot carry, so the Rabin index is 2. The
    /// complement is reactivity but not simple reactivity, with
    /// reactivity index 2. An index that counts completed pairs reads 1
    /// for both.
    #[test]
    fn parity_clique_indices_count_loops() {
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let clique = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |_, s| s.index() as StateId,
            Acceptance::parity_min_even(&[0, 1, 2]),
        );
        let ctx = Analysis::new(clique.clone());
        assert!(ctx.is_simple_reactivity() && !ctx.is_recurrence() && !ctx.is_persistence());
        assert_eq!((ctx.reactivity_index(), ctx.rabin_index()), (1, 2));
        let co = Analysis::new(clique.complement());
        let c = co.classification();
        assert_eq!(c.strictest_class_name(), "reactivity");
        assert!(!c.is_simple_reactivity);
        assert_eq!((c.reactivity_index, co.rabin_index()), (2, 1));
    }
}

#[cfg(test)]
mod obligation_index_orientation_tests {
    use super::*;
    use crate::alphabet::Alphabet;

    /// □¬c ∧ ◇b over {a,b,c} has no A(Φ) ∪ E(Ψ) form (chain [B,G,B]), so
    /// its obligation index is 2 — the case that distinguishes the G→B
    /// orientation of the condensation DP from the naive B→G count.
    #[test]
    fn chains_ending_bad_cost_an_extra_conjunct() {
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let cc = sigma.symbol("c").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| {
                if q == 2 || s == cc {
                    2
                } else if q == 1 || s == b {
                    1
                } else {
                    0
                }
            },
            Acceptance::inf([1]).and(Acceptance::fin([2])),
        );
        let c = classify(&m);
        assert!(c.is_obligation);
        assert_eq!(c.obligation_index, Some(2));
        // The union-form dual, □a ∨ ◇c, stays at index 1.
        let dual = m.with_acceptance(Acceptance::fin([1, 2]).or(Acceptance::inf([2])));
        assert_eq!(classify(&dual).obligation_index, Some(1));
        // And complementation maps index-1-union to index-?-intersection:
        // ¬(□a ∨ ◇c) = ◇¬a ∧ □¬c has a [B,G,B]-style chain too.
        let comp = classify(&dual.complement());
        assert!(comp.is_obligation);
        assert_eq!(comp.obligation_index, Some(2));
    }
}

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
//! verdict type, the batch front ends and the color-lattice walk behind
//! the chain queries.
//!
//! # The color-lattice construction
//!
//! The chain checks quantify over *all* accessible cycles, of which there
//! can be exponentially many. We exploit the fact that whether a cycle `C`
//! is accepting depends only on which acceptance atoms (the state sets
//! appearing in the condition — its "colors") `C` intersects. For an anchor
//! state `q` and a set `D` of colors, let `S(q, D)` be the SCC containing
//! `q` in the graph restricted to states whose colors all lie in `D`. Then:
//!
//! * every cycle `C ∋ q` satisfies `C ⊆ S(q, colors(C))` and
//!   `colors(S(q, colors(C))) = colors(C)`, so the canonical SCC has the
//!   same acceptance status as `C`;
//! * for a fixed anchor, `D₁ ⊆ D₂` implies `S(q, D₁) ⊆ S(q, D₂)`, so every
//!   ⊆-chain of cycles through `q` maps to a ⊆-chain of canonical SCCs with
//!   identical statuses.
//!
//! Hence the existence of alternating cycle chains — which is what all the
//! chain checks ask — is decidable by dynamic programming over the lattice
//! of color subsets, anchored at each state in turn: `O(2^m)` SCC passes for
//! `m` colors, i.e. polynomial in the automaton for any fixed acceptance
//! condition. The walk takes at most [`MAX_LATTICE_ATOMS`] colors.

use crate::acceptance::Acceptance;
use crate::analysis::Analysis;
use crate::bitset::BitSet;
use crate::omega::OmegaAutomaton;

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
/// This is a thin wrapper over the single-walk full verdict of
/// [`Analysis::classification`]; build an `Analysis` directly to share
/// the underlying caches across further queries.
///
/// # Panics
///
/// Panics unless [`Analysis::classifiable`] holds for the automaton.
pub fn classify(aut: &OmegaAutomaton) -> Classification {
    Analysis::new(aut.clone()).classification().clone()
}

/// Classifies a batch of automata, fanning the suite out across the
/// worker pool of [`crate::par`] (one automaton per work item; the
/// lattice walk inside each item runs sequentially, so the pool is never
/// oversubscribed).
///
/// Verdicts are returned in input order and are identical to calling
/// [`classify`] on each automaton — the batch only changes the schedule,
/// never the result. `spec-lint --jobs`, the seeded sweeps of
/// `tab_decision`/`tab_lint`, and the `tab_parallel` scaling series all
/// go through here.
pub fn classify_suite(auts: &[OmegaAutomaton]) -> Vec<Classification> {
    classify_suite_with(crate::par::thread_count(), auts)
}

/// [`classify_suite`] with an explicit worker count (the thread-scaling
/// experiment pins 1/2/4/N workers).
pub fn classify_suite_with(threads: usize, auts: &[OmegaAutomaton]) -> Vec<Classification> {
    crate::par::map_with(threads, auts, classify)
}

/// The most distinct acceptance atoms the color-lattice walk takes: its
/// per-state color masks are `u32`s, and it visits up to `2^m` points.
pub const MAX_LATTICE_ATOMS: usize = 16;

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

/// Per-anchor canonical-cycle analysis over the color lattice (see module
/// docs), built by [`Analysis::chains`]. Exposes the alternating-chain
/// queries behind the full verdict.
#[derive(Debug, Clone)]
pub struct ChainAnalysis {
    /// For each state `q`: the canonical cycles anchored at `q`, as
    /// `(accepting, lattice_mask)` pairs in increasing `lattice_mask` order,
    /// where `lattice_mask` is the color set `D` of the restriction whose
    /// SCC around `q` the entry describes. Unreachable or acyclic anchors
    /// get an empty list.
    anchor_statuses: Vec<Vec<(bool, u32)>>,
}

impl ChainAnalysis {
    /// The lattice sweep over the reachable part of `aut`, with every SCC
    /// decomposition requested through `scc_of` (the memo table of
    /// [`Analysis::sccs`]). Each color subset's restricted SCC pass is an
    /// independent Tarjan run, so the `2^m` points fan out across the
    /// worker pool of [`crate::par`] and the per-anchor statuses are
    /// merged in mask order afterwards (the merge order is what
    /// [`ChainAnalysis::has_chain`]'s DP relies on, so it stays sequential
    /// and deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the acceptance condition has more than
    /// [`MAX_LATTICE_ATOMS`] distinct atom sets.
    pub fn new_par(
        aut: &OmegaAutomaton,
        reachable: &BitSet,
        scc_of: impl Fn(&BitSet) -> std::sync::Arc<crate::scc::SccDecomposition> + Sync,
    ) -> Self {
        let walk = LatticeWalk::new(aut, reachable);
        let points = crate::par::map_indices(walk.point_count(), |d| walk.point(d, &scc_of));
        walk.merge(points)
    }

    /// Whether there is an ascending chain of accessible cycles
    /// `C₁ ⊆ C₂ ⊆ … ⊆ C_r` whose acceptance statuses spell `pattern`
    /// (`pattern[i]` = is `Cᵢ` accepting).
    pub fn has_chain(&self, pattern: &[bool]) -> bool {
        self.max_matching_prefix(pattern) == pattern.len()
    }

    /// The maximal `n` admitting an alternating chain of `n` status pairs
    /// starting with `first`: `first = false` is the reactivity index
    /// (`(B,J)^n` chains), `first = true` the Rabin index of the language
    /// (`(J,B)^n` chains — the complement's reactivity chains, since
    /// complementation keeps the canonical cycles and flips every
    /// status). At least 1 in both orientations.
    pub fn alternating_index(&self, first: bool) -> usize {
        let mut n = 0usize;
        loop {
            let mut pattern = Vec::new();
            for _ in 0..=n {
                pattern.push(first);
                pattern.push(!first);
            }
            if self.has_chain(&pattern) {
                n += 1;
            } else {
                return n.max(1);
            }
        }
    }

    /// Longest prefix of `pattern` realizable as an ascending cycle chain.
    fn max_matching_prefix(&self, pattern: &[bool]) -> usize {
        let mut best = 0;
        for statuses in &self.anchor_statuses {
            if statuses.is_empty() {
                continue;
            }
            best = best.max(longest_prefix_for_anchor(statuses, pattern));
            if best == pattern.len() {
                return best;
            }
        }
        best
    }
}

/// One lattice point's contribution to the chain analysis: the restricted
/// decomposition plus the indices and statuses of its canonical
/// (cycle-bearing) components. `None` for points whose restriction is
/// empty.
type LatticePoint = Option<(
    std::sync::Arc<crate::scc::SccDecomposition>,
    Vec<(usize, bool)>,
)>;

/// The skeleton of the lattice sweep: per-state color masks plus the
/// per-point computation and the order-sensitive merge. Points are
/// independent (this is what [`ChainAnalysis::new_par`] exploits); the
/// merge appends statuses in increasing mask order, the invariant the
/// chain DP needs.
struct LatticeWalk<'a> {
    aut: &'a OmegaAutomaton,
    reachable: &'a BitSet,
    atoms: Vec<BitSet>,
    color: Vec<u32>,
}

impl<'a> LatticeWalk<'a> {
    fn new(aut: &'a OmegaAutomaton, reachable: &'a BitSet) -> Self {
        let atoms = aut.acceptance().atom_sets();
        assert!(
            atoms.len() <= MAX_LATTICE_ATOMS,
            "acceptance condition has too many distinct atoms ({})",
            atoms.len()
        );
        let color: Vec<u32> = (0..aut.num_states())
            .map(|q| {
                let mut mask = 0u32;
                for (i, s) in atoms.iter().enumerate() {
                    if s.contains(q) {
                        mask |= 1 << i;
                    }
                }
                mask
            })
            .collect();
        LatticeWalk {
            aut,
            reachable,
            atoms,
            color,
        }
    }

    fn point_count(&self) -> usize {
        1usize << self.atoms.len()
    }

    fn point(
        &self,
        d: usize,
        scc_of: impl Fn(&BitSet) -> std::sync::Arc<crate::scc::SccDecomposition>,
    ) -> LatticePoint {
        let d = d as u32;
        let allowed: BitSet = self
            .reachable
            .iter()
            .filter(|&q| self.color[q] & !d == 0)
            .collect();
        if allowed.is_empty() {
            return None;
        }
        let sccs = scc_of(&allowed);
        let mut comps = Vec::new();
        for c in 0..sccs.len() {
            if !sccs.has_cycle[c] {
                continue;
            }
            let mut colors_mask = 0u32;
            for &q in &sccs.members[c] {
                colors_mask |= self.color[q as usize];
            }
            comps.push((
                c,
                eval_on_colors(self.aut.acceptance(), colors_mask, &self.atoms),
            ));
        }
        Some((sccs, comps))
    }

    fn merge(&self, points: Vec<LatticePoint>) -> ChainAnalysis {
        let mut anchor_statuses: Vec<Vec<(bool, u32)>> = vec![Vec::new(); self.aut.num_states()];
        for (d, point) in points.into_iter().enumerate() {
            let Some((sccs, comps)) = point else { continue };
            for (c, accepting) in comps {
                for &q in &sccs.members[c] {
                    anchor_statuses[q as usize].push((accepting, d as u32));
                }
            }
        }
        ChainAnalysis { anchor_statuses }
    }
}

/// Evaluates an acceptance condition given only which atoms (by index) a
/// cycle intersects.
fn eval_on_colors(acc: &Acceptance, colors_mask: u32, atoms: &[BitSet]) -> bool {
    match acc {
        Acceptance::True => true,
        Acceptance::False => false,
        Acceptance::Inf(s) => {
            let i = atoms.iter().position(|a| a == s).expect("atom present");
            colors_mask & (1 << i) != 0
        }
        Acceptance::Fin(s) => {
            let i = atoms.iter().position(|a| a == s).expect("atom present");
            colors_mask & (1 << i) == 0
        }
        Acceptance::And(xs) => xs.iter().all(|x| eval_on_colors(x, colors_mask, atoms)),
        Acceptance::Or(xs) => xs.iter().any(|x| eval_on_colors(x, colors_mask, atoms)),
    }
}

/// DP over one anchor's canonical cycles: the longest prefix of `pattern`
/// realizable by an ascending sub-chain. Entries are ordered by increasing
/// lattice mask, and `D₁ ⊆ D₂` implies `S(q, D₁) ⊆ S(q, D₂)`, so subset
/// pairs always appear in order.
fn longest_prefix_for_anchor(statuses: &[(bool, u32)], pattern: &[bool]) -> usize {
    let k = pattern.len();
    let n = statuses.len();
    let mut dp = vec![0usize; n];
    let mut best = 0;
    for i in 0..n {
        let (acc_i, d_i) = statuses[i];
        let mut longest = usize::from(pattern[0] == acc_i);
        for j in 0..i {
            let (_, d_j) = statuses[j];
            if d_j & !d_i == 0 && dp[j] > 0 && dp[j] < k && pattern[dp[j]] == acc_i {
                longest = longest.max(dp[j] + 1);
            }
        }
        dp[i] = longest;
        best = best.max(longest);
        if best == k {
            return k;
        }
    }
    best
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
    fn chain_analysis_direct() {
        let sigma = ab();
        let m = last_sym(&sigma, Acceptance::inf([1]));
        let ch = Analysis::new_raw(m).chains();
        // Accepting cycles exist, rejecting cycles exist:
        assert!(ch.has_chain(&[true]));
        assert!(ch.has_chain(&[false]));
        // rejecting {0} ⊆ accepting {0,1} exists:
        assert!(ch.has_chain(&[false, true]));
        // accepting inside rejecting does not:
        assert!(!ch.has_chain(&[true, false]));
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

//! Direct polynomial-time inclusion and equivalence for deterministic
//! ω-acceptors (Angluin & Fisman, arXiv:2002.03191).
//!
//! The classical oracle (`*_via_complement`) decides `L(A) ⊆ L(B)` by
//! building the complement of `B`, the product automaton `A × ¬B`, and
//! asking it for emptiness. This module decides the same question
//! *directly on the product graph*, without materializing a complement
//! or a product automaton; both run on the accepting-cycle kernel of
//! [`crate::emptiness`]:
//!
//! * **Parity fast path** — when both acceptance conditions admit a
//!   same-structure [`ParityView`] (Büchi, co-Büchi, one-pair Streett,
//!   one-pair Rabin, and any parity-shaped `Inf/Fin` chain), inclusion
//!   fails iff for some even priority `pa` of `A` and odd priority `pb`
//!   of `B` the product restricted to `{(q, r) : π_A(q) ≥ pa ∧ π_B(r) ≥
//!   pb}` has an SCC with a cycle containing both a `pa`-state and a
//!   `pb`-state. That is the literal Angluin–Fisman argument:
//!   `O(d_A · d_B)` plain SCC passes over the product. No region ever
//!   needs refining, so this is a plain scan; its witness is the kernel
//!   disjunct "hit a `pa`-state and a `pb`-state".
//! * **Rabin-decomposition path** — any other boolean condition is
//!   [`decompose`]d into a *disjunction* of [`RabinDisjunct`]s, keeping
//!   each Streett pair `Inf(R) ∨ Fin(S)` whole instead of distributing
//!   it. For every pair of disjuncts of `acc_A` and `¬acc_B`, lifted
//!   into the product, a counterexample cycle is sought by the kernel's
//!   iterated-SCC [`refine`](crate::emptiness::refine) — polynomial in
//!   the pair count. A `k_A`-pair Streett `A` against a `k_B`-pair
//!   Streett `B` costs `k_B` refinements instead of the `2^{k_A} · k_B`
//!   Tarjan passes of a DNF.
//!
//! On failure a counterexample [`Lasso`] is extracted by the kernel's
//! targeted tour of the witness region: one waypoint per pair the
//! region satisfies by hitting (one `pa`- and one `pb`-state on the
//! parity path), so the cycle is at most `(waypoints + 1) · |region|`
//! symbols long. `OmegaAutomaton::{is_subset_of, equivalent}` and
//! `Analysis::{is_subset_of, equivalent}` route through this module by
//! default, cross-checked against the complement oracle by a debug-mode
//! differential tripwire on every query (see DESIGN.md §11).

use crate::acceptance::Acceptance;
use crate::alphabet::Symbol;
use crate::bitset::BitSet;
use crate::emptiness::{decompose, first_witness, CyclePair, RabinDisjunct, Witness};
use crate::flat::FlatGraph;
use crate::lasso::Lasso;
use crate::omega::OmegaAutomaton;
use crate::scc::{tarjan_scc, SccCache};
use crate::StateId;
use std::collections::HashMap;

/// A per-state min-even parity priority assignment equivalent to a
/// boolean acceptance condition on the *same* transition structure: a
/// run is accepting iff the minimal priority among the states it visits
/// infinitely often is even.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityView {
    priorities: Vec<u32>,
}

impl ParityView {
    /// Tries to express `acc` (over `num_states` states) as a
    /// same-structure min-even parity assignment. Succeeds for `True`,
    /// `False`, Büchi `Inf(R)`, co-Büchi `Fin(S)`, one-pair Streett
    /// `Inf(R) ∨ Fin(S)`, one-pair Rabin `Inf(F) ∧ Fin(E)`, and any
    /// `Inf/Fin` chain of that shape (an `Or` with an `Inf` atom child,
    /// an `And` with a `Fin` atom child, recursively). Returns `None`
    /// for conditions with no same-structure parity view (multi-pair
    /// Streett or Rabin, generalized Büchi, …), which fall back to the
    /// Rabin-decomposition path of [`included`].
    pub fn try_of(acc: &Acceptance, num_states: usize) -> Option<ParityView> {
        Some(ParityView {
            priorities: priorities_of(acc, num_states)?,
        })
    }

    /// The priority of state `q`.
    pub fn priority(&self, q: StateId) -> u32 {
        self.priorities[q as usize]
    }

    /// The largest priority in use.
    pub fn max_priority(&self) -> u32 {
        self.priorities.iter().copied().max().unwrap_or(0)
    }

    /// Evaluates the parity condition on an infinity set: accepting iff
    /// the minimal priority over the set is even. (The empty set never
    /// arises as the infinity set of a real run; it is rejected.)
    pub fn accepts_infinity_set(&self, inf: &BitSet) -> bool {
        inf.iter()
            .map(|q| self.priorities[q])
            .min()
            .is_some_and(|p| p % 2 == 0)
    }
}

/// The recursive priority construction behind [`ParityView::try_of`].
///
/// Soundness of the two composite rules, for any cycle `C`:
/// `Or[Inf(R), rest]` with `R ↦ 0` and `q ↦ sub(q) + 2` elsewhere — if
/// `C ∩ R ≠ ∅` the minimum is `0` (accept, as `Inf(R)` holds);
/// otherwise every priority is a shifted `rest` priority, so the
/// verdict is `rest`'s. Dually for `And[Fin(S), rest]` with `S ↦ 1`.
fn priorities_of(acc: &Acceptance, n: usize) -> Option<Vec<u32>> {
    match acc {
        Acceptance::True => Some(vec![0; n]),
        Acceptance::False => Some(vec![1; n]),
        Acceptance::Inf(r) => Some((0..n).map(|q| u32::from(!r.contains(q))).collect()),
        Acceptance::Fin(s) => Some((0..n).map(|q| if s.contains(q) { 1 } else { 2 }).collect()),
        Acceptance::Or(xs) => {
            if xs.is_empty() {
                return Some(vec![1; n]); // empty disjunction = False
            }
            if xs.len() == 1 {
                return priorities_of(&xs[0], n);
            }
            let i = xs.iter().position(|x| matches!(x, Acceptance::Inf(_)))?;
            let Acceptance::Inf(r) = &xs[i] else {
                unreachable!("position matched an Inf atom")
            };
            let rest: Vec<Acceptance> = xs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, x)| x.clone())
                .collect();
            let sub = priorities_of(&Acceptance::Or(rest), n)?;
            Some(
                (0..n)
                    .map(|q| if r.contains(q) { 0 } else { sub[q] + 2 })
                    .collect(),
            )
        }
        Acceptance::And(xs) => {
            if xs.is_empty() {
                return Some(vec![0; n]); // empty conjunction = True
            }
            if xs.len() == 1 {
                return priorities_of(&xs[0], n);
            }
            let i = xs.iter().position(|x| matches!(x, Acceptance::Fin(_)))?;
            let Acceptance::Fin(s) = &xs[i] else {
                unreachable!("position matched a Fin atom")
            };
            let rest: Vec<Acceptance> = xs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, x)| x.clone())
                .collect();
            let sub = priorities_of(&Acceptance::And(rest), n)?;
            Some(
                (0..n)
                    .map(|q| if s.contains(q) { 1 } else { sub[q] + 2 })
                    .collect(),
            )
        }
    }
}

/// The reachable product of two deterministic transition structures over
/// one alphabet: pair states and a flat `delta[id·k + s]` table. It is
/// the crate's one reachable-product builder: the inclusion oracle walks
/// it, and the boolean operations of [`OmegaAutomaton`] and
/// [`crate::dfa::Dfa`] read their automata off it.
pub(crate) struct Product {
    k: usize,
    /// `pairs[id] = (a_state, b_state)`; id `0` is the initial pair.
    pub(crate) pairs: Vec<(StateId, StateId)>,
    pub(crate) delta: Vec<StateId>,
}

impl Product {
    /// Explores the pairs reachable from `start` over `k` symbols, in
    /// breadth-first order, `step` giving each pair's successor.
    pub(crate) fn build(
        k: usize,
        start: (StateId, StateId),
        step: impl Fn((StateId, StateId), Symbol) -> (StateId, StateId),
    ) -> Product {
        let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut pairs = vec![start];
        let mut delta: Vec<StateId> = Vec::new();
        index.insert(start, 0);
        let mut frontier = 0usize;
        while frontier < pairs.len() {
            for s in 0..k {
                let succ = step(pairs[frontier], Symbol(s as u8));
                let id = *index.entry(succ).or_insert_with(|| {
                    pairs.push(succ);
                    (pairs.len() - 1) as StateId
                });
                delta.push(id);
            }
            frontier += 1;
        }
        Product { k, pairs, delta }
    }

    /// The product of two ω-automata.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub(crate) fn of(a: &OmegaAutomaton, b: &OmegaAutomaton) -> Product {
        assert_eq!(
            a.alphabet(),
            b.alphabet(),
            "product requires identical alphabets"
        );
        Product::build(
            a.alphabet().len(),
            (a.initial(), b.initial()),
            |(p, q), s| (a.step(p, s), b.step(q, s)),
        )
    }

    pub(crate) fn num_states(&self) -> usize {
        self.pairs.len()
    }

    fn step(&self, id: StateId, s: usize) -> StateId {
        self.delta[id as usize * self.k + s]
    }

    /// Lifts an `A`-side state set to the product states whose first
    /// component lies in it.
    pub(crate) fn lift_left(&self, set: &BitSet) -> BitSet {
        let mut out = BitSet::with_capacity(self.pairs.len());
        for (id, &(p, _)) in self.pairs.iter().enumerate() {
            if set.contains(p as usize) {
                out.insert(id);
            }
        }
        out
    }

    /// Lifts a `B`-side state set to the product states whose second
    /// component lies in it.
    pub(crate) fn lift_right(&self, set: &BitSet) -> BitSet {
        let mut out = BitSet::with_capacity(self.pairs.len());
        for (id, &(_, q)) in self.pairs.iter().enumerate() {
            if set.contains(q as usize) {
                out.insert(id);
            }
        }
        out
    }
}

/// Which side of the product must accept while the other rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// A word in `L(A) ∖ L(B)`.
    Left,
    /// A word in `L(B) ∖ L(A)`.
    Right,
}

/// The first counterexample region of the product for `side`, or `None`
/// when that direction's inclusion holds: a region whose targeted tour
/// the `side` automaton accepts and the other rejects.
fn counterexample_region(
    product: &Product,
    a: &OmegaAutomaton,
    b: &OmegaAutomaton,
    side: Side,
    sccs: &mut SccCache<&FlatGraph>,
) -> Option<Witness> {
    let (pos, neg) = match side {
        Side::Left => (a, b),
        Side::Right => (b, a),
    };
    // Parity fast path: both sides parity-expressible on their own
    // structure — the literal Angluin–Fisman priority enumeration.
    if let (Some(va), Some(vb)) = (
        ParityView::try_of(pos.acceptance(), pos.num_states()),
        ParityView::try_of(neg.acceptance(), neg.num_states()),
    ) {
        return parity_region(product, &va, &vb, side, sccs.graph());
    }
    // General path: Rabin decomposition of "pos accepts" and "neg
    // rejects", every combination lifted into the product.
    let lift_pos = |s: &BitSet| match side {
        Side::Left => product.lift_left(s),
        Side::Right => product.lift_right(s),
    };
    let lift_neg = |s: &BitSet| match side {
        Side::Left => product.lift_right(s),
        Side::Right => product.lift_left(s),
    };
    let rejecting = decompose(&neg.acceptance().negated(), neg.num_states());
    let disjuncts = decompose(pos.acceptance(), pos.num_states())
        .into_iter()
        .flat_map(|da| {
            let da = da.map_sets(lift_pos);
            rejecting.iter().map(move |db| {
                let mut d = da.clone();
                d.merge(&db.map_sets(lift_neg));
                d
            })
        });
    first_witness(disjuncts, &BitSet::all(product.num_states()), |x| {
        sccs.sccs(Some(x))
    })
}

/// The parity × parity product argument: enumerate an even priority
/// `pa` of the accepting side and an odd priority `pb` of the rejecting
/// side, restrict the product to states at least that high on both, and
/// look for an SCC whose cycle realizes both minima exactly — `pa`
/// (even, accepted) on one side and `pb` (odd, rejected) on the other.
/// No region ever needs refining, so this is a plain scan; its witness
/// must hit a `pa`-state and a `pb`-state, the tour's two waypoints.
fn parity_region(
    product: &Product,
    view_pos: &ParityView,
    view_neg: &ParityView,
    side: Side,
    graph: &FlatGraph,
) -> Option<Witness> {
    let n = product.num_states();
    let (prio_pos, prio_neg): (Vec<u32>, Vec<u32>) = product
        .pairs
        .iter()
        .map(|&(p, q)| match side {
            Side::Left => (view_pos.priority(p), view_neg.priority(q)),
            Side::Right => (view_pos.priority(q), view_neg.priority(p)),
        })
        .unzip();
    for pa in (0..=view_pos.max_priority()).step_by(2) {
        for pb in (1..=view_neg.max_priority()).step_by(2) {
            let allowed: BitSet = (0..n)
                .filter(|&id| prio_pos[id] >= pa && prio_neg[id] >= pb)
                .collect();
            if allowed.is_empty() {
                continue;
            }
            let dec = tarjan_scc(graph, Some(&allowed));
            for c in (0..dec.len()).filter(|&c| dec.has_cycle[c]) {
                let members = &dec.members[c];
                let hits = |prio: &[u32], p: u32| members.iter().any(|&q| prio[q as usize] == p);
                if hits(&prio_pos, pa) && hits(&prio_neg, pb) {
                    let must_hit = |prio: &[u32], p: u32| CyclePair {
                        hit: (0..n).filter(|&id| prio[id] == p).collect(),
                        bad: BitSet::all(n),
                    };
                    let disjunct = RabinDisjunct {
                        avoid: allowed.complement(n),
                        pairs: vec![must_hit(&prio_pos, pa), must_hit(&prio_neg, pb)],
                    };
                    let region = dec.member_set(c);
                    return Some(Witness { region, disjunct });
                }
            }
        }
    }
    None
}

/// The first counterexample region over `sides`, all on the product's
/// deduplicated CSR successor graph. The decomposition path's SCC passes
/// share one memo: sibling regions, and often the two sides, ask for the
/// same restrictions. (The parity scan never repeats one, so it skips
/// the memo, which costs more than it saves on small products.)
fn witness(
    product: &Product,
    a: &OmegaAutomaton,
    b: &OmegaAutomaton,
    sides: &[Side],
) -> Option<Witness> {
    let graph = FlatGraph::from_delta(product.num_states(), product.k, &product.delta);
    let mut sccs = SccCache::new(&graph);
    sides
        .iter()
        .find_map(|&side| counterexample_region(product, a, b, side, &mut sccs))
}

/// Whether `L(a) ⊆ L(b)`, decided directly on the product graph.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn included(a: &OmegaAutomaton, b: &OmegaAutomaton) -> bool {
    let product = Product::of(a, b);
    witness(&product, a, b, &[Side::Left]).is_none()
}

/// Whether `L(a) = L(b)`. Both directions share one product graph —
/// the transition structure is direction-independent; only the lifted
/// acceptance constraints differ.
pub fn equivalent(a: &OmegaAutomaton, b: &OmegaAutomaton) -> bool {
    let product = Product::of(a, b);
    witness(&product, a, b, &[Side::Left, Side::Right]).is_none()
}

/// A lasso that one of `sides` accepts and the other automaton rejects,
/// with the product region its targeted tour runs through.
pub(crate) fn separating_lasso(
    a: &OmegaAutomaton,
    b: &OmegaAutomaton,
    sides: &[Side],
) -> Option<(Lasso, Witness)> {
    let product = Product::of(a, b);
    let w = witness(&product, a, b, sides)?;
    let lasso = w.tour(product.num_states(), 0, |q, f| {
        for s in 0..product.k {
            f(Symbol(s as u8), product.step(q, s));
        }
    });
    Some((lasso, w))
}

/// A lasso in `L(a) ∖ L(b)`, or `None` when `L(a) ⊆ L(b)`.
pub fn inclusion_counterexample(a: &OmegaAutomaton, b: &OmegaAutomaton) -> Option<Lasso> {
    let (lasso, _) = separating_lasso(a, b, &[Side::Left])?;
    debug_assert!(
        a.accepts(&lasso) && !b.accepts(&lasso),
        "inclusion counterexample must separate the languages"
    );
    Some(lasso)
}

/// A lasso accepted by exactly one of the two automata, or `None` when
/// the languages are equal. Shares one product graph across both
/// directions.
pub fn distinguishing_lasso(a: &OmegaAutomaton, b: &OmegaAutomaton) -> Option<Lasso> {
    let (lasso, _) = separating_lasso(a, b, &[Side::Left, Side::Right])?;
    debug_assert!(
        a.accepts(&lasso) != b.accepts(&lasso),
        "distinguishing lasso must separate the languages"
    );
    Some(lasso)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::random::rng::{SeedableRng, StdRng};
    use crate::random::{random_acceptance, random_streett, random_structure};
    use crate::streett::{rabin, StreettPair};

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    fn last_sym(sigma: &Alphabet, acc: Acceptance) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(sigma, 2, 0, |_, s| if s == b { 1 } else { 0 }, acc)
    }

    #[test]
    fn parity_view_of_named_shapes() {
        let n = 4;
        // Büchi, co-Büchi, one-pair Streett, one-pair Rabin.
        let cases = [
            Acceptance::inf([1, 2]),
            Acceptance::fin([0]),
            StreettPair::new([1], [0, 2]).acceptance(n),
            rabin(&[(BitSet::from_iter([0]), BitSet::from_iter([2, 3]))]),
            Acceptance::True,
            Acceptance::False,
        ];
        for acc in cases {
            let view = ParityView::try_of(&acc, n)
                .unwrap_or_else(|| panic!("{acc} should have a parity view"));
            for bits in 1u8..16 {
                let inf: BitSet = (0..n).filter(|i| bits & (1 << i) != 0).collect();
                assert_eq!(
                    view.accepts_infinity_set(&inf),
                    acc.accepts_infinity_set(&inf),
                    "parity view of {acc} disagrees on {inf:?}"
                );
            }
        }
    }

    #[test]
    fn multi_pair_streett_has_no_parity_view() {
        let n = 4;
        let pairs = [
            StreettPair::new([1], [0]).acceptance(n),
            StreettPair::new([2], [3]).acceptance(n),
        ];
        let acc = pairs[0].clone().and(pairs[1].clone());
        assert!(ParityView::try_of(&acc, n).is_none());
        // Generalized Büchi likewise.
        let gb = Acceptance::inf([0]).and(Acceptance::inf([1]));
        assert!(ParityView::try_of(&gb, n).is_none());
    }

    #[test]
    fn parity_views_agree_wherever_they_exist() {
        let mut rng = StdRng::seed_from_u64(2002);
        let n = 5;
        let mut found = 0;
        for _ in 0..300 {
            let acc = random_acceptance(&mut rng, n, 2);
            if let Some(view) = ParityView::try_of(&acc, n) {
                found += 1;
                for bits in 1u8..32 {
                    let inf: BitSet = (0..n).filter(|i| bits & (1 << i) != 0).collect();
                    assert_eq!(
                        view.accepts_infinity_set(&inf),
                        acc.accepts_infinity_set(&inf),
                        "parity view of {acc} disagrees on {inf:?}"
                    );
                }
            }
        }
        assert!(found > 20, "the sweep should exercise the parity rules");
    }

    #[test]
    fn basic_inclusions() {
        let sigma = ab();
        let inf_b = last_sym(&sigma, Acceptance::inf([1]));
        let ev_alw_a = last_sym(&sigma, Acceptance::fin([1]));
        assert!(!included(&inf_b, &ev_alw_a));
        assert!(!included(&ev_alw_a, &inf_b));
        assert!(included(&inf_b, &inf_b));
        assert!(included(&OmegaAutomaton::empty(&sigma), &inf_b));
        assert!(included(&inf_b, &OmegaAutomaton::universal(&sigma)));
        assert!(!included(&OmegaAutomaton::universal(&sigma), &inf_b));
        assert!(equivalent(&inf_b, &inf_b));
        assert!(!equivalent(&inf_b, &ev_alw_a));
    }

    #[test]
    fn counterexamples_separate() {
        let sigma = ab();
        let inf_b = last_sym(&sigma, Acceptance::inf([1]));
        let ev_alw_a = last_sym(&sigma, Acceptance::fin([1]));
        let w = inclusion_counterexample(&inf_b, &ev_alw_a).unwrap();
        assert!(inf_b.accepts(&w) && !ev_alw_a.accepts(&w));
        assert!(inclusion_counterexample(&inf_b, &inf_b).is_none());
        let d = distinguishing_lasso(&inf_b, &ev_alw_a).unwrap();
        assert_ne!(inf_b.accepts(&d), ev_alw_a.accepts(&d));
        assert!(distinguishing_lasso(&ev_alw_a, &ev_alw_a.clone()).is_none());
    }

    #[test]
    fn agrees_with_the_complement_oracle_on_random_automata() {
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(314);
        let mut prev: Option<OmegaAutomaton> = None;
        for i in 0..60u64 {
            let k = [1usize, 2, 3][(i % 3) as usize];
            let (aut, _) = random_streett(&mut rng, &sigma, 6, k, 0.4);
            if let Some(other) = prev {
                assert_eq!(
                    included(&aut, &other),
                    aut.is_subset_of_via_complement(&other),
                    "case {i}: inclusion verdict diverged"
                );
                assert_eq!(
                    equivalent(&aut, &other),
                    aut.equivalent_via_complement(&other),
                    "case {i}: equivalence verdict diverged"
                );
                if let Some(w) = inclusion_counterexample(&aut, &other) {
                    assert!(aut.accepts(&w) && !other.accepts(&w), "case {i}");
                }
            }
            prev = Some(aut);
        }
    }

    #[test]
    fn random_acceptance_pairs_agree_with_the_complement_oracle() {
        // Beyond Streett: arbitrary boolean conditions on both sides,
        // exercising the decomposition path (and mixed parity shapes).
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(2718);
        for i in 0..40u64 {
            let left = random_structure(&mut rng, &sigma, 5)
                .with_acceptance(random_acceptance(&mut rng, 5, 2));
            let right = random_structure(&mut rng, &sigma, 5)
                .with_acceptance(random_acceptance(&mut rng, 5, 2));
            assert_eq!(
                included(&left, &right),
                left.is_subset_of_via_complement(&right),
                "case {i}: inclusion verdict diverged"
            );
            if let Some(w) = distinguishing_lasso(&left, &right) {
                assert_ne!(left.accepts(&w), right.accepts(&w), "case {i}");
            } else {
                assert!(left.equivalent_via_complement(&right), "case {i}");
            }
        }
    }
}

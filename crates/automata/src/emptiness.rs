//! The accepting-cycle kernel.
//!
//! Emptiness, `Pref(Π)` (the live states), the persistent-cycle sets of
//! Prop 5.1, language inclusion and the fair-cycle search of the model
//! checker all ask one question of the automata view (§5): is there a
//! reachable cycle that meets some state sets and avoids others? This
//! module answers it once, in four pieces:
//!
//! * [`decompose`] rewrites an acceptance condition as a disjunction of
//!   [`RabinDisjunct`]s — an avoid set plus Streett-style [`CyclePair`]s —
//!   keeping every Streett pair whole (Angluin & Fisman,
//!   arXiv:2002.03191): a `k`-pair Streett condition is one disjunct,
//!   where the generalized-Rabin DNF of [`Acceptance::dnf`] has `2^k`;
//! * [`refine`] is the iterated-SCC refinement over any graph, polynomial
//!   in the pair count, with the SCC source supplied by the caller — a
//!   memoizing [`SccCache`] for the free functions here, the shared memo
//!   of [`crate::analysis::Analysis`] for a context, and product graphs
//!   for [`crate::inclusion`] and the model checker;
//! * [`shortest_path`] is the one labelled breadth-first path search:
//!   the tours below, the model checker's counterexamples and the
//!   shortest accepted word of a [`crate::dfa::Dfa`] all run it;
//! * the targeted tour (`Witness::tour`) turns a region into a lasso
//!   through one waypoint per constraint.
//!
//! A *region* is a cycle-bearing SCC of a restricted graph. [`refine`]
//! only restricts to `X − (union of cuts)`, with `X` the caller's starting
//! restriction. Starting from `X = reachable − avoid`, where the cuts are
//! `bad` sets, every restriction is a point `reachable − (union of
//! acceptance atoms)` of the lattice of atom subsets. The alternating
//! cycle decomposition of [`crate::classify`] is built from the same
//! refinements and stays on the same lattice, so an
//! [`crate::analysis::Analysis`] shares one memoized SCC pass per point
//! between classification, emptiness and liveness.

use crate::acceptance::Acceptance;
use crate::alphabet::Symbol;
use crate::bitset::BitSet;
use crate::flat::FlatGraph;
use crate::lasso::Lasso;
use crate::omega::OmegaAutomaton;
use crate::scc::{SccCache, SccDecomposition};
use crate::StateId;
use std::collections::VecDeque;
use std::sync::Arc;

/// One cycle constraint of a [`RabinDisjunct`]: a cycle `C` satisfies
/// the pair iff `C ∩ hit ≠ ∅` or `C ∩ bad = ∅`. This is a Streett pair
/// `(R, P)` with `hit = R` and `bad = Q ∖ P`, phrased so no set
/// complements are needed when lifting into a product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclePair {
    /// The "recurrent" side: intersecting this set satisfies the pair.
    pub hit: BitSet,
    /// The "forbidden" side: a cycle missing `hit` must avoid this set.
    pub bad: BitSet,
}

/// One disjunct of the cycle-level decomposition of an acceptance
/// condition: a cycle `C` satisfies the disjunct iff `C ∩ avoid = ∅`
/// and every [`CyclePair`] holds. Unlike the generalized-Rabin DNF of
/// [`Acceptance::dnf`], Streett pairs are *not* distributed — a `k`-pair
/// Streett condition stays a single disjunct with `k` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RabinDisjunct {
    /// States the cycle must not touch at all.
    pub avoid: BitSet,
    /// Streett-style constraints the cycle must satisfy.
    pub pairs: Vec<CyclePair>,
}

impl RabinDisjunct {
    fn trivial() -> RabinDisjunct {
        RabinDisjunct {
            avoid: BitSet::new(),
            pairs: Vec::new(),
        }
    }

    /// Conjunction of two disjuncts.
    pub(crate) fn merge(&mut self, other: &RabinDisjunct) {
        self.avoid.union_with(&other.avoid);
        self.pairs.extend(other.pairs.iter().cloned());
    }

    /// Whether a (non-empty) cycle satisfies this disjunct.
    pub fn accepts_cycle(&self, cycle: &BitSet) -> bool {
        cycle.is_disjoint(&self.avoid)
            && self
                .pairs
                .iter()
                .all(|p| cycle.intersects(&p.hit) || cycle.is_disjoint(&p.bad))
    }

    /// The same constraints with every set mapped through `lift` (onto
    /// the states of a product, say).
    pub fn map_sets(&self, lift: impl Fn(&BitSet) -> BitSet) -> RabinDisjunct {
        RabinDisjunct {
            avoid: lift(&self.avoid),
            pairs: self
                .pairs
                .iter()
                .map(|p| CyclePair {
                    hit: lift(&p.hit),
                    bad: lift(&p.bad),
                })
                .collect(),
        }
    }

    /// The [`refine`] cut of a region that avoids `avoid`: the union of
    /// the `bad` sets of the pairs it violates (misses `hit`, meets
    /// `bad`). No satisfying cycle inside the region touches it, and it
    /// is empty iff the tour of the whole region satisfies the disjunct.
    pub fn violations(&self, region: &BitSet) -> BitSet {
        let mut cut = BitSet::new();
        for p in &self.pairs {
            if !region.intersects(&p.hit) && region.intersects(&p.bad) {
                cut.union_with(&p.bad);
            }
        }
        cut
    }

    /// The waypoints of a satisfying region's tour: one `hit` state for
    /// each pair whose `bad` set the region meets. Every other
    /// constraint holds on any sub-cycle of the region.
    pub fn waypoints(&self, region: &BitSet) -> Vec<StateId> {
        let mut out: Vec<StateId> = Vec::new();
        for p in self.pairs.iter().filter(|p| region.intersects(&p.bad)) {
            let q = region
                .iter()
                .find(|&q| p.hit.contains(q))
                .expect("a satisfying region that meets `bad` meets `hit`")
                as StateId;
            if !out.contains(&q) {
                out.push(q);
            }
        }
        out
    }
}

/// Recognizes an `Or` of `Inf`/`Fin` atoms with at most one `Fin` as a
/// single [`CyclePair`]: `Inf(R₁) ∨ … ∨ Inf(Rₘ) ∨ Fin(S)` becomes
/// `(hit = ⋃ Rᵢ, bad = S)`. With no `Fin` child the pair has no escape
/// — `bad` is the full state set `Q`, so a (non-empty) cycle satisfies
/// it only by hitting `⋃ Rᵢ`. This is what keeps Streett conditions
/// from being distributed.
fn or_as_cycle_pair(xs: &[Acceptance], n: usize) -> Option<CyclePair> {
    let mut hit = BitSet::new();
    let mut bad: Option<BitSet> = None;
    for x in xs {
        match x {
            Acceptance::Inf(r) => hit.union_with(r),
            Acceptance::Fin(s) => {
                if bad.is_some() {
                    return None; // Fin(S₁) ∨ Fin(S₂) is not one pair
                }
                bad = Some(s.clone());
            }
            _ => return None,
        }
    }
    Some(CyclePair {
        hit,
        bad: bad.unwrap_or_else(|| BitSet::all(n)),
    })
}

/// Decomposes an acceptance condition over `n` states into a
/// disjunction of [`RabinDisjunct`]s: a non-empty cycle satisfies `acc`
/// iff it satisfies some disjunct. Streett-pair-shaped `Or`s are kept
/// as single [`CyclePair`]s, so Streett conditions produce *one*
/// disjunct and Rabin conditions one per pair; only genuinely non-pair
/// `Or`s under an `And` distribute (matching the DNF disjunct count
/// there — the decomposition is never larger than the DNF). Every
/// `avoid` and `bad` set is a union of acceptance atoms, or all of `Q`.
pub fn decompose(acc: &Acceptance, n: usize) -> Vec<RabinDisjunct> {
    match acc {
        Acceptance::True => vec![RabinDisjunct::trivial()],
        Acceptance::False => vec![],
        Acceptance::Inf(r) => vec![RabinDisjunct {
            avoid: BitSet::new(),
            pairs: vec![CyclePair {
                hit: r.clone(),
                bad: BitSet::all(n),
            }],
        }],
        Acceptance::Fin(s) => vec![RabinDisjunct {
            avoid: s.clone(),
            pairs: Vec::new(),
        }],
        Acceptance::Or(xs) => {
            if xs.is_empty() {
                return vec![]; // empty disjunction = False
            }
            if let Some(pair) = or_as_cycle_pair(xs, n) {
                return vec![RabinDisjunct {
                    avoid: BitSet::new(),
                    pairs: vec![pair],
                }];
            }
            xs.iter().flat_map(|x| decompose(x, n)).collect()
        }
        Acceptance::And(xs) => {
            let mut out = vec![RabinDisjunct::trivial()];
            for x in xs {
                let d = decompose(x, n);
                match d.len() {
                    0 => return vec![], // a False conjunct sinks everything
                    1 => {
                        for a in &mut out {
                            a.merge(&d[0]);
                        }
                    }
                    _ => {
                        let mut next = Vec::with_capacity(out.len() * d.len());
                        for a in &out {
                            for b in &d {
                                let mut m = a.clone();
                                m.merge(b);
                                next.push(m);
                            }
                        }
                        out = next;
                    }
                }
            }
            out
        }
    }
}

/// The iterated-SCC refinement. Each region `R` of `G[restriction]`
/// (inside `parent`, when one is given) is asked for its `cut`: an empty
/// cut hands `R` and the restriction it is a region of to `found`, which
/// stops the search by returning `Some`; otherwise `R` gives way to the
/// regions of `G[X ∖ cut]` inside it, `X` being the restriction `R` is a
/// region of. Those are exactly the regions of `G[R ∖ cut]` (a cycle of
/// `G[X]` through `R` stays in `R`), but the restriction keeps the form
/// `restriction − (union of cuts)`: a memoizing `sccs` serves sibling
/// regions from one pass, and every restriction an
/// [`crate::analysis::Analysis`] asks for stays `reachable − (union of
/// acceptance atoms)`. Empty restrictions, and those missing `R`, are
/// never asked for. If `cut` only removes states no satisfying cycle
/// inside `R` visits (as [`RabinDisjunct::violations`]), the regions
/// handed to `found` cover every satisfying cycle of `G[restriction]`
/// (inside `parent`).
pub fn refine<T>(
    restriction: BitSet,
    parent: Option<&BitSet>,
    mut sccs: impl FnMut(&BitSet) -> Arc<SccDecomposition>,
    mut cut: impl FnMut(&BitSet) -> BitSet,
    mut found: impl FnMut(BitSet, &BitSet) -> Option<T>,
) -> Option<T> {
    if restriction.is_empty() {
        return None;
    }
    // Every restriction asked for; a stacked region names its own.
    let mut within = vec![restriction];
    let mut stack = regions(&sccs(&within[0]), 0, parent);
    while let Some((region, x)) = stack.pop() {
        let shed = cut(&region);
        if shed.is_empty() {
            if let Some(t) = found(region, &within[x]) {
                return Some(t);
            }
        } else if !region.is_subset(&shed) {
            within.push(within[x].difference(&shed));
            let inner = within.len() - 1;
            stack.extend(regions(&sccs(&within[inner]), inner, Some(&region)));
        }
    }
    None
}

/// The regions of `dec`, a decomposition of restriction number `within`,
/// that lie inside `parent` when one is given.
fn regions(dec: &SccDecomposition, within: usize, parent: Option<&BitSet>) -> Vec<(BitSet, usize)> {
    (0..dec.len())
        .filter(|&c| {
            dec.has_cycle[c] && parent.is_none_or(|p| p.contains(dec.members[c][0] as usize))
        })
        .map(|c| (dec.member_set(c), within))
        .collect()
}

/// The labelled breadth-first path search: a shortest path from any of
/// `sources` into `targets` over states `0..n`, with every state after
/// the start inside `within` when given. `edges(q, f)` calls `f(label,
/// t)` for each edge `q → t`. Returns the start and the `(label, state)`
/// steps after it — no steps when a source already is a target.
pub fn shortest_path<L: Copy>(
    n: usize,
    sources: impl IntoIterator<Item = StateId>,
    targets: &BitSet,
    within: Option<&BitSet>,
    edges: impl Fn(StateId, &mut dyn FnMut(L, StateId)),
) -> Option<(StateId, Vec<(L, StateId)>)> {
    let mut prev: Vec<Option<(StateId, L)>> = vec![None; n];
    let mut seen = BitSet::with_capacity(n);
    let mut queue = VecDeque::new();
    for s in sources {
        if targets.contains(s as usize) {
            return Some((s, Vec::new()));
        }
        if seen.insert(s as usize) {
            queue.push_back(s);
        }
    }
    while let Some(q) = queue.pop_front() {
        let mut reached = None;
        edges(q, &mut |label, t| {
            if reached.is_some()
                || within.is_some_and(|w| !w.contains(t as usize))
                || !seen.insert(t as usize)
            {
                return;
            }
            prev[t as usize] = Some((q, label));
            if targets.contains(t as usize) {
                reached = Some(t);
            } else {
                queue.push_back(t);
            }
        });
        if let Some(mut at) = reached {
            let mut steps = Vec::new();
            while let Some((p, label)) = prev[at as usize] {
                steps.push((label, at));
                at = p;
            }
            steps.reverse();
            return Some((at, steps));
        }
    }
    None
}

/// A region satisfying a [`RabinDisjunct`].
#[derive(Debug, Clone)]
pub(crate) struct Witness {
    pub(crate) region: BitSet,
    pub(crate) disjunct: RabinDisjunct,
}

impl Witness {
    /// The waypoints of the region's tour ([`RabinDisjunct::waypoints`]).
    pub(crate) fn waypoints(&self) -> Vec<StateId> {
        self.disjunct.waypoints(&self.region)
    }

    /// The targeted tour over a deterministic graph on states `0..n`
    /// (`edges` as in [`shortest_path`], labelled by symbols): a lasso
    /// entering the region by a shortest path from `initial`, whose
    /// cycle stays inside the region, visits each waypoint and returns
    /// to the entry state. A sub-cycle of a satisfying region keeps
    /// every avoid constraint and every pair it satisfies by missing
    /// `bad`, and the waypoints serve the rest, so the lasso is accepted.
    /// Each leg is a shortest path inside the strongly connected region,
    /// so the cycle has at most `(waypoints + 1) · |region|` symbols.
    pub(crate) fn tour(
        &self,
        n: usize,
        initial: StateId,
        edges: impl Fn(StateId, &mut dyn FnMut(Symbol, StateId)),
    ) -> Lasso {
        let region = &self.region;
        let leg = |from: StateId, to: StateId| {
            let to = BitSet::from_iter([to as usize]);
            shortest_path(n, [from], &to, Some(region), &edges)
                .expect("the region is strongly connected")
                .1
        };
        let (_, spoke) =
            shortest_path(n, [initial], region, None, &edges).expect("the region is reachable");
        let entry = spoke.last().map_or(initial, |&(_, q)| q);
        let mut cycle: Vec<(Symbol, StateId)> = Vec::new();
        for w in self.waypoints() {
            let at = cycle.last().map_or(entry, |&(_, q)| q);
            cycle.extend(leg(at, w));
        }
        if cycle.is_empty() {
            // The tour never left the entry: take any edge of the region.
            let mut step = None;
            edges(entry, &mut |sym, t| {
                if step.is_none() && region.contains(t as usize) {
                    step = Some((sym, t));
                }
            });
            cycle.push(step.expect("the region has a cycle"));
        }
        let at = cycle.last().map_or(entry, |&(_, q)| q);
        cycle.extend(leg(at, entry));
        let symbols = |steps: Vec<(Symbol, StateId)>| steps.into_iter().map(|(s, _)| s).collect();
        Lasso::new(symbols(spoke), symbols(cycle))
    }

    /// The tour over the transition graph of `aut`.
    pub(crate) fn lasso(&self, aut: &OmegaAutomaton) -> Lasso {
        self.tour(aut.num_states(), aut.initial(), |q, f| {
            for sym in aut.alphabet().symbols() {
                f(sym, aut.step(q, sym));
            }
        })
    }
}

/// The first region of `disjuncts`, in order, inside `restriction`.
pub(crate) fn first_witness(
    disjuncts: impl IntoIterator<Item = RabinDisjunct>,
    restriction: &BitSet,
    mut sccs: impl FnMut(&BitSet) -> Arc<SccDecomposition>,
) -> Option<Witness> {
    disjuncts.into_iter().find_map(|disjunct| {
        let within = restriction.difference(&disjunct.avoid);
        let region = refine(
            within,
            None,
            &mut sccs,
            |r| disjunct.violations(r),
            |r, _| Some(r),
        )?;
        Some(Witness { region, disjunct })
    })
}

/// The states of `restriction` lying on some `acc`-accepting cycle
/// inside it: the union of every region of every disjunct.
pub(crate) fn cycle_states(
    acc: &Acceptance,
    n: usize,
    restriction: &BitSet,
    mut sccs: impl FnMut(&BitSet) -> Arc<SccDecomposition>,
) -> BitSet {
    let mut out = BitSet::with_capacity(n);
    for d in decompose(acc, n) {
        refine::<()>(
            restriction.difference(&d.avoid),
            None,
            &mut sccs,
            |r| d.violations(r),
            |r, _| {
                out.union_with(&r);
                None
            },
        );
    }
    out
}

/// The SCC source of the uncached queries: a memo over the transition
/// graph of `aut`, alive for one query.
pub(crate) fn scc_memo(aut: &OmegaAutomaton) -> impl FnMut(&BitSet) -> Arc<SccDecomposition> + '_ {
    let mut cache = SccCache::new(aut);
    move |allowed| cache.sccs(Some(allowed))
}

/// The set of states from which `targets` is reachable (including the
/// targets themselves), walked over `predecessors`, the reversed
/// transition graph ([`FlatGraph::reversed`]).
pub fn backward_closure(predecessors: &FlatGraph, targets: BitSet) -> BitSet {
    let mut closed = targets;
    let mut queue: VecDeque<usize> = closed.iter().collect();
    while let Some(q) = queue.pop_front() {
        for &p in predecessors.successors(q as StateId) {
            if closed.insert(p as usize) {
                queue.push_back(p as usize);
            }
        }
    }
    closed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::inclusion::{included, separating_lasso, Side};
    use crate::random::rng::{SeedableRng, StdRng};
    use crate::random::{
        random_acceptance, random_parity, random_rabin, random_streett, random_structure,
    };
    use crate::streett::{StreettPair, StreettPairs};

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Automaton over {a,b} tracking the last symbol (state 0 = a, 1 = b).
    fn last_symbol(sigma: &Alphabet, acceptance: Acceptance) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(sigma, 2, 0, |_, s| if s == b { 1 } else { 0 }, acceptance)
    }

    #[test]
    fn witness_for_buchi() {
        let sigma = ab();
        let m = last_symbol(&sigma, Acceptance::inf([1]));
        let w = m.accepted_lasso().unwrap();
        assert!(m.accepts(&w));
    }

    #[test]
    fn witness_for_generalized_condition() {
        let sigma = ab();
        // Inf{0} ∧ Inf{1}: both symbols infinitely often.
        let m = last_symbol(&sigma, Acceptance::inf([0]).and(Acceptance::inf([1])));
        let w = m.accepted_lasso().unwrap();
        assert!(m.accepts(&w));
        // The loop must contain both symbols.
        let names: Vec<&str> = w.cycle().iter().map(|&s| sigma.name(s)).collect();
        assert!(names.contains(&"a") && names.contains(&"b"));
    }

    #[test]
    fn empty_when_contradictory() {
        let sigma = ab();
        // Inf{1} ∧ Fin{1} is unsatisfiable.
        let m = last_symbol(&sigma, Acceptance::inf([1]).and(Acceptance::fin([1])));
        assert!(m.accepted_lasso().is_none());
    }

    #[test]
    fn fin_condition_witness_avoids_states() {
        let sigma = ab();
        let m = last_symbol(&sigma, Acceptance::fin([1]));
        let w = m.accepted_lasso().unwrap();
        assert!(m.accepts(&w));
        // Loop may only produce a's.
        assert!(w.cycle().iter().all(|&s| sigma.name(s) == "a"));
    }

    #[test]
    fn live_states_spread_backwards() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // 0 --b--> 1 --b--> 2(trap, accepting); a self-loops everywhere.
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| if s == b { (q + 1).min(2) } else { q },
            Acceptance::inf([2]),
        );
        assert_eq!(m.live_states(), BitSet::from_iter([0, 1, 2]));
        // Make the acceptance unsatisfiable instead: nothing is live.
        let m2 = m.with_acceptance(Acceptance::Inf(BitSet::new()));
        assert!(m2.live_states().is_empty());
    }

    #[test]
    fn streett_refinement_finds_fair_cycle() {
        let sigma = ab();
        // Pair: Inf{1} ∨ run ⊆ {0}: satisfied by cycle {0} or any cycle
        // containing 1.
        let pairs = StreettPairs(vec![StreettPair::new([1], [0])]);
        let m = last_symbol(&sigma, pairs.acceptance(2));
        assert_eq!(decompose(m.acceptance(), 2).len(), 1);
        let w = m.accepted_lasso().unwrap();
        assert!(m.accepts(&w));
        assert_eq!(m.live_states(), BitSet::from_iter([0, 1]));
    }

    #[test]
    fn streett_refinement_detects_emptiness() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // Once you read b you are stuck in state 1 (self-loop).
        let m = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::True,
        );
        // Pair (R=∅, P=∅) is unsatisfiable: every cycle must hit ∅ or
        // stay within ∅.
        let pairs = StreettPairs(vec![StreettPair::new([], [])]);
        let m = m.with_acceptance(pairs.acceptance(2));
        assert!(m.accepted_lasso().is_none());
        assert!(m.live_states().is_empty());
    }

    #[test]
    fn streett_refinement_multi_pair() {
        let sigma = ab();
        // Two pairs: Inf{0} and Inf{1} (pure Büchi pairs with P=∅): only
        // the full cycle {0,1} works, and its tour visits both states.
        let pairs = StreettPairs(vec![StreettPair::new([0], []), StreettPair::new([1], [])]);
        let m = last_symbol(&sigma, pairs.acceptance(2));
        let d = decompose(m.acceptance(), 2);
        let all = BitSet::all(2);
        let regions: Vec<BitSet> = d
            .iter()
            .filter_map(|d| {
                refine(
                    all.difference(&d.avoid),
                    None,
                    |x| Arc::new(m.sccs(Some(x))),
                    |r| d.violations(r),
                    |r, _| Some(r),
                )
            })
            .collect();
        assert_eq!(regions, vec![all]);
        let w = m.accepted_lasso().unwrap();
        assert!(m.accepts(&w));
        assert_eq!(w.cycle().len(), 2);
    }

    #[test]
    fn refinement_cuts_the_violated_bad_sets_and_keeps_to_the_region() {
        // 0 ⇄ 1 ⇄ 2, each with a self-loop: a single region. The pair
        // (hit ∅, bad {1}) is violated by it; the cut leaves the regions
        // {0} and {2}, both asked for through one restriction {0, 2}.
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| match (q, s == b) {
                (0, true) => 1,
                (1, true) => 2,
                (2, true) => 1,
                (1, false) => 0,
                (q, false) => q,
                _ => unreachable!(),
            },
            Acceptance::True,
        );
        let d = RabinDisjunct {
            avoid: BitSet::new(),
            pairs: vec![CyclePair {
                hit: BitSet::new(),
                bad: BitSet::from_iter([1]),
            }],
        };
        let mut asked: Vec<BitSet> = Vec::new();
        let mut found: Vec<BitSet> = Vec::new();
        refine::<()>(
            BitSet::all(3),
            None,
            |x| {
                asked.push(x.clone());
                Arc::new(m.sccs(Some(x)))
            },
            |r| d.violations(r),
            |r, _| {
                found.push(r);
                None
            },
        );
        assert_eq!(asked, vec![BitSet::all(3), BitSet::from_iter([0, 2])]);
        found.sort_by_key(|r| r.first());
        assert_eq!(found, vec![BitSet::from_iter([0]), BitSet::from_iter([2])]);
    }

    #[test]
    fn shortest_paths() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| if s == b { (q + 1).min(2) } else { q },
            Acceptance::True,
        );
        let edges = |q: StateId, f: &mut dyn FnMut(Symbol, StateId)| {
            for sym in sigma.symbols() {
                f(sym, m.step(q, sym));
            }
        };
        let to = |q: usize| BitSet::from_iter([q]);
        let (start, p) = shortest_path(3, [0], &to(2), None, edges).unwrap();
        assert_eq!(start, 0);
        assert_eq!(p, vec![(b, 1), (b, 2)]);
        assert_eq!(shortest_path(3, [2], &to(0), None, edges), None);
        assert_eq!(
            shortest_path(3, [1], &to(1), None, edges),
            Some((1, vec![]))
        );
        // Several sources: the nearest one wins; `within` bounds the path.
        assert_eq!(shortest_path(3, [0, 1], &to(2), None, edges).unwrap().0, 1);
        assert_eq!(
            shortest_path(3, [0], &to(2), Some(&to(2)), edges),
            None,
            "state 1 lies outside `within`"
        );
    }

    #[test]
    fn decomposition_agrees_with_direct_eval() {
        let mut rng = StdRng::seed_from_u64(3191);
        let n = 5;
        for _ in 0..200 {
            let acc = random_acceptance(&mut rng, n, 2);
            let d = decompose(&acc, n);
            for bits in 1u8..32 {
                let inf: BitSet = (0..n).filter(|i| bits & (1 << i) != 0).collect();
                assert_eq!(
                    d.iter().any(|x| x.accepts_cycle(&inf)),
                    acc.accepts_infinity_set(&inf),
                    "decomposition of {acc} disagrees on {inf:?}"
                );
            }
        }
    }

    #[test]
    fn streett_decomposition_stays_single_disjunct() {
        let mut rng = StdRng::seed_from_u64(7);
        let sigma = ab();
        let (aut, pairs) = random_streett(&mut rng, &sigma, 6, 4, 0.4);
        let d = decompose(aut.acceptance(), 6);
        assert_eq!(
            d.len(),
            1,
            "a Streett condition must not distribute (got {} disjuncts)",
            d.len()
        );
        assert_eq!(d[0].pairs.len(), pairs.len());
        // …while its negation (a Rabin condition) is one disjunct per pair.
        let neg = decompose(&aut.acceptance().negated(), 6);
        assert_eq!(neg.len(), pairs.len());
    }

    /// The targeted tour's bound: `(waypoints + 1) · |region|` symbols.
    fn bound(w: &Witness) -> usize {
        (w.waypoints().len() + 1) * w.region.len()
    }

    /// Every accepted lasso, inclusion counterexample and distinguishing
    /// lasso replays on both automata, with a cycle within the targeted
    /// tour's bound — on Streett, Rabin, parity and random boolean
    /// conditions, plus the two seeded 48-state pairs whose every-state
    /// tours overran it (10,651 and 10,299 symbols against 7,056 and
    /// 6,700).
    #[test]
    fn witnesses_replay_within_the_tour_bound() {
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let mut pairs: Vec<(OmegaAutomaton, OmegaAutomaton)> = Vec::new();
        for i in 0..48usize {
            let n = 4 + i % 9;
            let k = 1 + i % 3;
            let mut draw = || match i % 4 {
                0 => random_streett(&mut rng, &sigma, n, k, 0.3).0,
                1 => random_rabin(&mut rng, &sigma, n, k, 0.3),
                2 => random_parity(&mut rng, &sigma, n, 4),
                _ => random_structure(&mut rng, &sigma, n)
                    .with_acceptance(random_acceptance(&mut rng, n, 2)),
            };
            pairs.push((draw(), draw()));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut overran = 0;
        while overran < 2 {
            let a = random_streett(&mut rng, &sigma, 48, 2, 0.15).0;
            let b = random_streett(&mut rng, &sigma, 48, 2, 0.15).0;
            if !included(&a, &b) {
                pairs.push((a, b));
                overran += 1;
            }
        }
        let mut separated = 0;
        for (i, (a, b)) in pairs.iter().enumerate() {
            for aut in [a, b] {
                let disjuncts = decompose(aut.acceptance(), aut.num_states());
                match first_witness(disjuncts, &aut.reachable_states(), scc_memo(aut)) {
                    Some(w) => {
                        let lasso = w.lasso(aut);
                        assert!(aut.accepts(&lasso), "case {i}: accepted lasso");
                        assert!(lasso.cycle().len() <= bound(&w), "case {i}: accepted lasso");
                    }
                    // Emptiness itself is checked against cycle
                    // enumeration in tests/bruteforce_oracle.rs.
                    None => assert!(
                        !aut.live_states().contains(aut.initial() as usize),
                        "case {i}: emptiness"
                    ),
                }
            }
            match separating_lasso(a, b, &[Side::Left]) {
                Some((lasso, w)) => {
                    assert!(a.accepts(&lasso) && !b.accepts(&lasso), "case {i}");
                    assert!(lasso.cycle().len() <= bound(&w), "case {i}: counterexample");
                    separated += 1;
                }
                None => assert!(a.is_subset_of_via_complement(b), "case {i}"),
            }
            match separating_lasso(a, b, &[Side::Left, Side::Right]) {
                Some((lasso, w)) => {
                    assert_ne!(a.accepts(&lasso), b.accepts(&lasso), "case {i}");
                    assert!(lasso.cycle().len() <= bound(&w), "case {i}: distinguishing");
                }
                None => assert!(a.equivalent_via_complement(b), "case {i}"),
            }
        }
        assert!(separated >= 30, "only {separated} separated pairs");
    }
}

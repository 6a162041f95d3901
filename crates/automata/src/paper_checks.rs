//! The paper's own structural decision procedures (§5.1) and κ-automaton
//! constructions (Proposition 5.1), implemented for Streett predicate
//! automata.
//!
//! These procedures work on the *structure* of a Streett automaton — state
//! sets and transitions — rather than on its language, which makes them fast
//! but specific to the Streett shape. The semantically exact procedures live
//! on [`Analysis`]; the test-suite and the `TAB-DEC` experiment
//! cross-validate the two.
//!
//! Contents:
//!
//! * [`good_states`] — the paper's `G = ⋂ᵢ (Rᵢ ∪ Pᵢ)`;
//! * [`successor_closure`] — the paper's `Â`, the smallest transition-closed
//!   superset;
//! * [`is_safety_structural`] / [`is_guarantee_structural`] — "`B̂ ∩ G = ∅`"
//!   and its dual;
//! * shape predicates for single-pair automata (safety / guarantee / simple
//!   obligation / obligation-with-rank / recurrence / persistence shapes,
//!   §5);
//! * [`safety_automaton`] / [`guarantee_automaton`] /
//!   [`recurrence_automaton`] / [`persistence_automaton`] — the Prop 5.1
//!   constructions producing a κ-shaped automaton from an automaton whose
//!   language is a κ-property.

use crate::acceptance::Acceptance;
use crate::alphabet::Symbol;
use crate::analysis::Analysis;
use crate::bitset::BitSet;
use crate::emptiness;
use crate::omega::{forward_closure, OmegaAutomaton};
use crate::scc::tarjan_scc;
use crate::streett::StreettPairs;
use crate::StateId;

/// The paper's good-state set `G = ⋂ᵢ (Rᵢ ∪ Pᵢ)` for a Streett pair list
/// over `num_states` states. The bad set is its complement.
pub fn good_states(pairs: &StreettPairs, num_states: usize) -> BitSet {
    let mut g = BitSet::all(num_states);
    for p in &pairs.0 {
        g.intersect_with(&p.recurrent.union(&p.persistent));
    }
    g
}

/// The successor closure `Â`: the smallest set containing `set` and closed
/// under transitions (the paper's "closed set of automaton states").
pub fn successor_closure(aut: &OmegaAutomaton, set: &BitSet) -> BitSet {
    forward_closure(aut.table(), aut.alphabet().len(), set.clone())
}

/// §5.1, "checking for a safety property": the automaton specifies a safety
/// property iff `B̂ ∩ G = ∅`, i.e. no good state is reachable from a bad
/// state.
///
/// **Soundness caveat (verified computationally, see the `TAB-DEC`
/// experiment and EXPERIMENTS.md):** with `G = ⋂ᵢ(Rᵢ ∪ Pᵢ)` this check is
/// sound for *single-pair* automata; for `k ≥ 2` pairs a cycle of bad
/// states can still satisfy the Streett condition crosswise (one pair met
/// through its `R`, another through its `P`), so the check as printed in
/// the paper over-approximates. The exact semantic check is
/// [`Analysis::is_safety`].
pub fn is_safety_structural(aut: &OmegaAutomaton, pairs: &StreettPairs) -> bool {
    let g = good_states(pairs, aut.num_states());
    let b = g.complement(aut.num_states());
    successor_closure(aut, &b).is_disjoint(&g)
}

/// §5.1, "checking for a guarantee property": `Ĝ ∩ B = ∅` — no bad state is
/// reachable from a good state.
pub fn is_guarantee_structural(aut: &OmegaAutomaton, pairs: &StreettPairs) -> bool {
    let g = good_states(pairs, aut.num_states());
    let b = g.complement(aut.num_states());
    successor_closure(aut, &g).is_disjoint(&b)
}

/// Whether a single-pair automaton has the paper's *safety shape*: no
/// transition from a bad state to a good state (`G = R ∪ P`).
pub fn is_safety_shaped(aut: &OmegaAutomaton, recurrent: &BitSet, persistent: &BitSet) -> bool {
    let g = recurrent.union(persistent);
    no_edge(aut, &g.complement(aut.num_states()), &g)
}

/// Whether a single-pair automaton has the paper's *guarantee shape*: no
/// transition from a good state to a bad state.
pub fn is_guarantee_shaped(aut: &OmegaAutomaton, recurrent: &BitSet, persistent: &BitSet) -> bool {
    let g = recurrent.union(persistent);
    no_edge(aut, &g, &g.complement(aut.num_states()))
}

/// Whether a single-pair automaton has the paper's *simple obligation
/// shape*: no transition from `q ∉ P` to `q' ∈ P`, and none from `q ∈ R` to
/// `q' ∉ R` (once a run leaves `P` it never re-enters; once it enters `R` it
/// never leaves).
pub fn is_simple_obligation_shaped(
    aut: &OmegaAutomaton,
    recurrent: &BitSet,
    persistent: &BitSet,
) -> bool {
    let n = aut.num_states();
    no_edge(aut, &persistent.complement(n), persistent)
        && no_edge(aut, recurrent, &recurrent.complement(n))
}

/// The minimal degree `k` for which a single-pair automaton admits the
/// paper's *general obligation* rank function (ranks never decrease along
/// transitions, bad→good transitions strictly increase, and no good state of
/// maximal rank has a transition to a bad state), or `None` if no rank
/// function of any degree exists (some SCC mixes a bad→good transition into
/// a cycle).
pub fn obligation_shape_degree(
    aut: &OmegaAutomaton,
    recurrent: &BitSet,
    persistent: &BitSet,
) -> Option<usize> {
    let g = recurrent.union(persistent);
    let reachable = aut.reachable_states();
    let sccs = tarjan_scc(aut, Some(&reachable));
    // Ranks are forced constant on SCCs, so a bad→good edge inside one SCC
    // is fatal.
    for q in reachable.iter() {
        for sym in aut.alphabet().symbols() {
            let t = aut.step(q as StateId, sym) as usize;
            if sccs.component[q] == sccs.component[t] && !g.contains(q) && g.contains(t) {
                return None;
            }
        }
    }
    // Minimal rank per component: the maximal number of bad→good crossings
    // on any path from the initial component. Tarjan numbers successors with
    // smaller indices, so decreasing index order is topological.
    let n_comp = sccs.len();
    let mut rank: Vec<Option<usize>> = vec![None; n_comp];
    let init_comp = sccs.component[aut.initial() as usize];
    rank[init_comp] = Some(0);
    for c in (0..n_comp).rev() {
        let Some(rc) = rank[c] else { continue };
        for &q in &sccs.members[c] {
            for sym in aut.alphabet().symbols() {
                let t = aut.step(q, sym) as usize;
                let ct = sccs.component[t];
                if ct == c {
                    continue;
                }
                let crossing = usize::from(!g.contains(q as usize) && g.contains(t));
                let candidate = rc + crossing;
                if rank[ct].is_none_or(|r| r < candidate) {
                    rank[ct] = Some(candidate);
                }
            }
        }
    }
    let mut k = rank.iter().flatten().copied().max().unwrap_or(0);
    // "No transition from a good state of rank k to a bad state": bump the
    // degree if some maximal-rank good state exits to a bad state.
    let max_rank_violation = reachable.iter().any(|q| {
        rank[sccs.component[q]] == Some(k)
            && g.contains(q)
            && aut
                .alphabet()
                .symbols()
                .any(|sym| !g.contains(aut.step(q as StateId, sym) as usize))
    });
    if max_rank_violation {
        k += 1;
    }
    Some(k.max(1))
}

/// Whether a pair list has the paper's *recurrence shape*: every persistent
/// set is empty (pure generalized Büchi).
pub fn is_recurrence_shaped(pairs: &StreettPairs) -> bool {
    pairs.0.iter().all(|p| p.persistent.is_empty())
}

/// Whether a pair list has the paper's *persistence shape*: every recurrent
/// set is empty (pure generalized co-Büchi).
pub fn is_persistence_shaped(pairs: &StreettPairs) -> bool {
    pairs.0.iter().all(|p| p.recurrent.is_empty())
}

fn no_edge(aut: &OmegaAutomaton, from: &BitSet, to: &BitSet) -> bool {
    !from.iter().any(|q| {
        aut.alphabet()
            .symbols()
            .any(|sym| to.contains(aut.step(q as StateId, sym) as usize))
    })
}

/// Prop 5.1 (safety direction): builds a *safety-shaped* automaton for the
/// language of `aut`, valid whenever that language is a safety property.
///
/// Construction (the paper's `M'`): keep the live part of the automaton
/// (the states reached by `Pref(Π)`), redirect every transition that leaves
/// it into an absorbing bad sink, and accept iff the run stays good forever
/// (the Streett pair `(G, G)`).
///
/// Returns `None` if the language is not a safety property. The verdict
/// and the (reachable) live set come from one [`Analysis`] context.
pub fn safety_automaton(aut: &OmegaAutomaton) -> Option<OmegaAutomaton> {
    let ctx = Analysis::new(aut.clone());
    if !ctx.is_safety() {
        return None;
    }
    Some(safety_shaped_from_live(aut, &ctx.live()))
}

fn safety_shaped_from_live(aut: &OmegaAutomaton, live: &BitSet) -> OmegaAutomaton {
    if !live.contains(aut.initial() as usize) {
        // Empty language: a lone bad sink (safety-shaped, rejects all).
        return OmegaAutomaton::build(
            aut.alphabet(),
            1,
            0,
            |_, _| 0,
            Acceptance::Fin(BitSet::all(1)),
        );
    }
    let order: Vec<usize> = live.iter().collect();
    let mut dense = vec![StateId::MAX; aut.num_states()];
    for (i, &q) in order.iter().enumerate() {
        dense[q] = i as StateId;
    }
    let sink = order.len() as StateId;
    let n = order.len() + 1;
    let alphabet = aut.alphabet().clone();
    let aut_c = aut.clone();
    let live_c = live.clone();
    let good: BitSet = (0..order.len()).collect();
    let acceptance = Acceptance::Inf(good).or(Acceptance::Fin(BitSet::from_iter([sink as usize])));
    let initial = dense[aut.initial() as usize];
    let delta = move |q: StateId, sym: Symbol| -> StateId {
        if q == sink {
            return sink;
        }
        let t = aut_c.step(order[q as usize] as StateId, sym) as usize;
        if live_c.contains(t) {
            dense[t]
        } else {
            sink
        }
    };
    OmegaAutomaton::build(&alphabet, n, initial, delta, acceptance)
}

/// Prop 5.1 (guarantee direction): builds a *guarantee-shaped* automaton
/// for the language of `aut`, valid whenever that language is a guarantee
/// property.
///
/// Construction: the universal states (residual language `Σ^ω`) collapse
/// into an absorbing good sink; the run is accepted iff it reaches the
/// sink.
///
/// Returns `None` if the language is not a guarantee property. The
/// verdict and the complement's live set come from one [`Analysis`]
/// context ([`Analysis::co_live`], so no complement automaton is built);
/// unreachable states fold into the sink, which cannot change the
/// language.
pub fn guarantee_automaton(aut: &OmegaAutomaton) -> Option<OmegaAutomaton> {
    let ctx = Analysis::new(aut.clone());
    if !ctx.is_guarantee() {
        return None;
    }
    // Universal states = dead states of the complement.
    let co_live = ctx.co_live();
    let universal = co_live.complement(aut.num_states());
    Some(guarantee_shaped_from_universal(aut, &universal))
}

fn guarantee_shaped_from_universal(aut: &OmegaAutomaton, universal: &BitSet) -> OmegaAutomaton {
    if universal.contains(aut.initial() as usize) {
        // Universal language: a lone good sink.
        return OmegaAutomaton::build(aut.alphabet(), 1, 0, |_, _| 0, Acceptance::inf([0]));
    }
    let order: Vec<usize> = (0..aut.num_states())
        .filter(|q| !universal.contains(*q))
        .collect();
    let mut dense = vec![StateId::MAX; aut.num_states()];
    for (i, &q) in order.iter().enumerate() {
        dense[q] = i as StateId;
    }
    let sink = order.len() as StateId;
    let n = order.len() + 1;
    let alphabet = aut.alphabet().clone();
    let aut_c = aut.clone();
    let initial = dense[aut.initial() as usize];
    let delta = move |q: StateId, sym: Symbol| -> StateId {
        if q == sink {
            return sink;
        }
        let t = aut_c.step(order[q as usize] as StateId, sym) as usize;
        if universal.contains(t) {
            sink
        } else {
            dense[t]
        }
    };
    OmegaAutomaton::build(
        &alphabet,
        n,
        initial,
        delta,
        Acceptance::inf([sink as usize]),
    )
}

/// States lying on some cycle that (a) is accepting for `acc` and (b) avoids
/// `avoid` — the paper's `A₁`, the states participating in *persistent
/// cycles* with respect to a pair.
pub fn states_on_accepting_cycles_avoiding(
    aut: &OmegaAutomaton,
    acc: &Acceptance,
    avoid: &BitSet,
) -> BitSet {
    let allowed = aut.reachable_states().difference(avoid);
    emptiness::cycle_states(acc, aut.num_states(), &allowed, emptiness::scc_memo(aut))
}

/// Prop 5.1 (recurrence direction): given a Streett automaton whose
/// language is a recurrence property, builds an equivalent *deterministic
/// Büchi* automaton.
///
/// The construction follows the paper: each pair `(Rᵢ, Pᵢ)` is replaced by
/// `(Rᵢ ∪ Aᵢ, ∅)` where `Aᵢ` collects the states of the pair's persistent
/// cycles (accepting cycles avoiding `Rᵢ`); once all persistent sets are
/// empty the automaton is generalized Büchi, which a modulo-`k` counter
/// product reduces to plain Büchi.
///
/// Returns `None` if the language is not a recurrence property.
pub fn recurrence_automaton(aut: &OmegaAutomaton, pairs: &StreettPairs) -> Option<OmegaAutomaton> {
    let n = aut.num_states();
    let with_pairs = aut.with_acceptance(pairs.acceptance(n));
    if !Analysis::new(with_pairs).is_recurrence() {
        return None;
    }
    if pairs.is_empty() {
        return Some(aut.with_acceptance(Acceptance::Inf(BitSet::all(n))));
    }
    // Sequentially absorb persistent cycles.
    let mut infs: Vec<BitSet> = Vec::new();
    for i in 0..pairs.len() {
        // Current acceptance: already-processed pairs as pure Inf, the rest
        // in original Streett form.
        let mut acc = infs
            .iter()
            .map(|s| Acceptance::Inf(s.clone()))
            .fold(Acceptance::True, Acceptance::and);
        for p in &pairs.0[i..] {
            acc = acc.and(p.acceptance(n));
        }
        let a_i = states_on_accepting_cycles_avoiding(aut, &acc, &pairs.0[i].recurrent);
        infs.push(pairs.0[i].recurrent.union(&a_i));
    }
    // Generalized Büchi (Inf of every set in `infs`) → Büchi by counter.
    Some(generalized_buchi_to_buchi(aut, &infs))
}

/// Prop 5.1 (persistence direction): given a *Rabin* automaton — pairs
/// `(Eᵢ, Fᵢ)`, accepting iff some `i` has `inf ∩ Fᵢ ≠ ∅` and
/// `inf ∩ Eᵢ = ∅` — whose language is a persistence property, builds an
/// equivalent *deterministic co-Büchi* automaton by dualizing through
/// [`recurrence_automaton`], exactly as the paper does.
///
/// Returns `None` if the language is not a persistence property.
pub fn persistence_automaton(
    aut: &OmegaAutomaton,
    rabin: &[(BitSet, BitSet)],
) -> Option<OmegaAutomaton> {
    let n = aut.num_states();
    // Complement acceptance: Streett pairs (R = Eᵢ, P = Q − Fᵢ).
    let streett = StreettPairs(
        rabin
            .iter()
            .map(|(e, f)| crate::streett::StreettPair {
                recurrent: e.clone(),
                persistent: f.complement(n),
            })
            .collect(),
    );
    let dba = recurrence_automaton(aut, &streett)?;
    Some(dba.complement())
}

/// Degeneralization: reduces "visit every set of `infs` infinitely often"
/// on `aut`'s structure to a single Büchi condition via a modulo-`k`
/// counter.
pub fn generalized_buchi_to_buchi(aut: &OmegaAutomaton, infs: &[BitSet]) -> OmegaAutomaton {
    let k = infs.len();
    if k == 0 {
        return aut.with_acceptance(Acceptance::Inf(BitSet::all(aut.num_states())));
    }
    if k == 1 {
        return aut.with_acceptance(Acceptance::Inf(infs[0].clone()));
    }
    let n = aut.num_states();
    let alphabet = aut.alphabet().clone();
    let id = move |q: usize, j: usize| (j * n + q) as StateId;
    let infs_owned: Vec<BitSet> = infs.to_vec();
    let aut_c = aut.clone();
    let delta = move |s: StateId, sym: Symbol| -> StateId {
        let (q, j) = ((s as usize) % n, (s as usize) / n);
        let j2 = if infs_owned[j].contains(q) {
            (j + 1) % k
        } else {
            j
        };
        id(aut_c.step(q as StateId, sym) as usize, j2)
    };
    // Accepting: awaiting the last set while standing on it (from such a
    // state the counter wraps, so visiting it infinitely often means every
    // set is visited infinitely often).
    let marked: BitSet = infs[k - 1].iter().map(|q| (k - 1) * n + q).collect();
    OmegaAutomaton::build(
        &alphabet,
        n * k,
        id(aut.initial() as usize, 0),
        delta,
        Acceptance::Inf(marked),
    )
    .trim()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::streett::StreettPair;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// □a over {a,b}: state 1 = bad trap.
    fn always_a(sigma: &Alphabet) -> (OmegaAutomaton, StreettPairs) {
        let b = sigma.symbol("b").unwrap();
        let pairs = StreettPairs::single(StreettPair::new([0], [0]));
        let aut = OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            pairs.acceptance(2),
        );
        (aut, pairs)
    }

    /// ◇b over {a,b}: state 1 = good trap.
    fn eventually_b(sigma: &Alphabet) -> (OmegaAutomaton, StreettPairs) {
        let b = sigma.symbol("b").unwrap();
        let pairs = StreettPairs::single(StreettPair::new([1], [1]));
        let aut = OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            pairs.acceptance(2),
        );
        (aut, pairs)
    }

    /// □◇b over {a,b} (last-symbol tracker, Büchi on the b-state).
    fn inf_b(sigma: &Alphabet) -> (OmegaAutomaton, StreettPairs) {
        let b = sigma.symbol("b").unwrap();
        let pairs = StreettPairs::single(StreettPair::new([1], []));
        let aut = OmegaAutomaton::build(
            sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            pairs.acceptance(2),
        );
        (aut, pairs)
    }

    #[test]
    fn structural_checks_match_paper_examples() {
        let sigma = ab();
        let (saf, saf_pairs) = always_a(&sigma);
        assert!(is_safety_structural(&saf, &saf_pairs));
        assert!(!is_guarantee_structural(&saf, &saf_pairs));
        let (gua, gua_pairs) = eventually_b(&sigma);
        assert!(is_guarantee_structural(&gua, &gua_pairs));
        assert!(!is_safety_structural(&gua, &gua_pairs));
        let (rec, rec_pairs) = inf_b(&sigma);
        assert!(!is_safety_structural(&rec, &rec_pairs));
        assert!(!is_guarantee_structural(&rec, &rec_pairs));
    }

    #[test]
    fn structural_checks_agree_with_semantic() {
        let sigma = ab();
        for (aut, pairs) in [always_a(&sigma), eventually_b(&sigma), inf_b(&sigma)] {
            let ctx = Analysis::new(aut.clone());
            assert_eq!(is_safety_structural(&aut, &pairs), ctx.is_safety());
            assert_eq!(is_guarantee_structural(&aut, &pairs), ctx.is_guarantee());
        }
    }

    #[test]
    fn shape_predicates() {
        let sigma = ab();
        let (saf, p) = always_a(&sigma);
        assert!(is_safety_shaped(
            &saf,
            &p.0[0].recurrent,
            &p.0[0].persistent
        ));
        assert!(!is_guarantee_shaped(
            &saf,
            &p.0[0].recurrent,
            &p.0[0].persistent
        ));
        let (gua, p) = eventually_b(&sigma);
        assert!(is_guarantee_shaped(
            &gua,
            &p.0[0].recurrent,
            &p.0[0].persistent
        ));
        let (rec, p) = inf_b(&sigma);
        assert!(is_recurrence_shaped(&p));
        assert!(!is_persistence_shaped(&p));
        assert!(!is_safety_shaped(
            &rec,
            &p.0[0].recurrent,
            &p.0[0].persistent
        ));
        assert!(!is_guarantee_shaped(
            &rec,
            &p.0[0].recurrent,
            &p.0[0].persistent
        ));
    }

    #[test]
    fn simple_obligation_shape() {
        let sigma = ab();
        // □a as pair (R={0}, P={0}): leaving P = {0} must be permanent ✓;
        // entering R must be permanent — state 0 is initial and R = {0},
        // transitions 0→1 leave R: violates "no transition from q ∈ R to
        // q' ∉ R".
        let (saf, p) = always_a(&sigma);
        assert!(!is_simple_obligation_shaped(
            &saf,
            &p.0[0].recurrent,
            &p.0[0].persistent
        ));
        // With R = ∅, P = {0} the same automaton is simple-obligation
        // shaped.
        assert!(is_simple_obligation_shaped(
            &saf,
            &BitSet::new(),
            &BitSet::from_iter([0])
        ));
    }

    #[test]
    fn safety_construction_roundtrip() {
        let sigma = ab();
        let (saf, _) = always_a(&sigma);
        let built = safety_automaton(&saf).unwrap();
        assert!(built.equivalent(&saf));
        let (rec, _) = inf_b(&sigma);
        assert!(safety_automaton(&rec).is_none());
    }

    #[test]
    fn guarantee_construction_roundtrip() {
        let sigma = ab();
        let (gua, _) = eventually_b(&sigma);
        let built = guarantee_automaton(&gua).unwrap();
        assert!(built.equivalent(&gua));
        let (saf, _) = always_a(&sigma);
        assert!(guarantee_automaton(&saf).is_none());
    }

    #[test]
    fn constructions_on_trivial_languages() {
        let sigma = ab();
        let empty = OmegaAutomaton::empty(&sigma);
        let full = OmegaAutomaton::universal(&sigma);
        assert!(safety_automaton(&empty).unwrap().is_empty());
        assert!(safety_automaton(&full).unwrap().is_universal());
        assert!(guarantee_automaton(&empty).unwrap().is_empty());
        assert!(guarantee_automaton(&full).unwrap().is_universal());
    }

    #[test]
    fn recurrence_construction_on_buchi_language() {
        let sigma = ab();
        let (rec, pairs) = inf_b(&sigma);
        let dba = recurrence_automaton(&rec, &pairs).unwrap();
        assert!(dba.equivalent(&rec));
        assert!(matches!(dba.acceptance(), Acceptance::Inf(_)));
    }

    #[test]
    fn recurrence_construction_absorbs_persistent_cycles() {
        let sigma = ab();
        // □a as a Streett pair (R={0}, P={0}): a safety (hence recurrence)
        // property whose pair has a non-trivial persistent part.
        let (saf, pairs) = always_a(&sigma);
        let dba = recurrence_automaton(&saf, &pairs).unwrap();
        assert!(dba.equivalent(&saf));
        assert!(matches!(dba.acceptance(), Acceptance::Inf(_)));
    }

    #[test]
    fn recurrence_construction_rejects_persistence_language() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // ◇□a as a single Streett pair (R = ∅, P = {0}).
        let pairs = StreettPairs::single(StreettPair::new([], [0]));
        let aut = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            pairs.acceptance(2),
        );
        assert!(recurrence_automaton(&aut, &pairs).is_none());
    }

    #[test]
    fn recurrence_construction_two_pairs() {
        let sigma = ab();
        // □◇a ∧ □◇b: generalized Büchi via two pure pairs.
        let b = sigma.symbol("b").unwrap();
        let pairs = StreettPairs(vec![StreettPair::new([0], []), StreettPair::new([1], [])]);
        let aut = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            pairs.acceptance(2),
        );
        let dba = recurrence_automaton(&aut, &pairs).unwrap();
        assert!(dba.equivalent(&aut));
        assert!(matches!(dba.acceptance(), Acceptance::Inf(_)));
    }

    #[test]
    fn persistence_construction_via_duality() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // ◇□a as a Rabin automaton: pair (E = {1}, F = {0}).
        let rabin = vec![(BitSet::from_iter([1]), BitSet::from_iter([0]))];
        let aut = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            crate::streett::rabin(&rabin),
        );
        let dca = persistence_automaton(&aut, &rabin).unwrap();
        assert!(dca.equivalent(&aut));
        // □◇b as Rabin: pair (E = ∅, F = {1}) — not persistence.
        let rabin2 = vec![(BitSet::new(), BitSet::from_iter([1]))];
        let aut2 = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            crate::streett::rabin(&rabin2),
        );
        assert!(persistence_automaton(&aut2, &rabin2).is_none());
    }

    #[test]
    fn degeneralization_correct() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            Acceptance::True,
        );
        let infs = vec![BitSet::from_iter([0]), BitSet::from_iter([1])];
        let dba = generalized_buchi_to_buchi(&aut, &infs);
        let direct = aut.with_acceptance(Acceptance::inf([0]).and(Acceptance::inf([1])));
        assert!(dba.equivalent(&direct));
        assert!(matches!(dba.acceptance(), Acceptance::Inf(_)));
    }

    #[test]
    fn obligation_shape_degree_examples() {
        let sigma = Alphabet::new(["a", "c"]).unwrap();
        let c = sigma.symbol("c").unwrap();
        // ◇c: 0(B) → 1(G, absorbing): degree 1.
        let aut = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |q, s| if q == 1 || s == c { 1 } else { 0 },
            Acceptance::inf([1]),
        );
        let r = BitSet::from_iter([1]);
        let p = BitSet::from_iter([1]);
        assert_eq!(obligation_shape_degree(&aut, &r, &p), Some(1));
        // A bad→good edge within an SCC kills the rank function:
        // 0 <-> 1 where 0 is bad, 1 is good.
        let flip = OmegaAutomaton::build(&sigma, 2, 0, |q, _| 1 - q, Acceptance::inf([1]));
        assert_eq!(obligation_shape_degree(&flip, &r, &p), None);
    }

    #[test]
    fn good_states_intersection() {
        let pairs = StreettPairs(vec![
            StreettPair::new([0, 1], [2]),
            StreettPair::new([1, 3], []),
        ]);
        // (R₁∪P₁) = {0,1,2}; (R₂∪P₂) = {1,3}; G = {1}.
        assert_eq!(good_states(&pairs, 4), BitSet::from_iter([1]));
    }

    #[test]
    fn successor_closure_reaches_traps() {
        let sigma = ab();
        let (saf, _) = always_a(&sigma);
        let cl = successor_closure(&saf, &BitSet::from_iter([0]));
        assert_eq!(cl, BitSet::from_iter([0, 1]));
        let cl1 = successor_closure(&saf, &BitSet::from_iter([1]));
        assert_eq!(cl1, BitSet::from_iter([1]));
    }
}

//! Brute-force oracle for the classification procedures and the
//! accepting-cycle kernel.
//!
//! The alternating cycle decomposition in `hierarchy_automata::classify`
//! and the iterated-SCC refinement in `hierarchy_automata::emptiness` avoid
//! enumerating the (exponentially many) accessible cycles. This suite
//! *does* enumerate them — every subset of every reachable SCC that
//! induces a strongly connected subgraph with at least one edge — builds
//! the paper's accepting family `F` explicitly, evaluates the
//! Wagner/Landweber chain conditions, emptiness, liveness and the
//! persistent-cycle sets literally, and compares against the production
//! code on hundreds of random automata. It shares no code with the
//! kernel or with the DNF loop of the `*_via_complement` oracles.

use temporal_properties::automata::bitset::BitSet;
use temporal_properties::automata::classify;
use temporal_properties::automata::omega::OmegaAutomaton;
use temporal_properties::automata::paper_checks::states_on_accepting_cycles_avoiding;
use temporal_properties::automata::random::rng::{Rng, SeedableRng, StdRng};
use temporal_properties::automata::random::{
    random_acceptance, random_parity, random_rabin, random_streett, random_structure,
};
use temporal_properties::prelude::*;

/// All accessible cycles (as state sets) of the automaton, by subset
/// enumeration within each reachable SCC.
fn accessible_cycles(aut: &OmegaAutomaton) -> Vec<BitSet> {
    let reachable = aut.reachable_states();
    let sccs = aut.sccs(Some(&reachable));
    let mut cycles = Vec::new();
    for c in 0..sccs.len() {
        if !sccs.has_cycle[c] {
            continue;
        }
        let members: Vec<usize> = sccs.members[c].iter().map(|&q| q as usize).collect();
        let m = members.len();
        assert!(m <= 16, "oracle automata must stay small");
        for mask in 1u32..(1 << m) {
            let subset: BitSet = members
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &q)| q)
                .collect();
            if is_cycle(aut, &subset) {
                cycles.push(subset);
            }
        }
    }
    cycles
}

/// Whether `set` induces a strongly connected subgraph with at least one
/// edge (the paper's notion of a cycle).
fn is_cycle(aut: &OmegaAutomaton, set: &BitSet) -> bool {
    let sccs = aut.sccs(Some(set));
    // The restriction must form a single SCC covering the set, with a
    // cycle.
    let mut comp = None;
    for q in set.iter() {
        let c = sccs.component[q];
        if c == usize::MAX {
            return false;
        }
        match comp {
            None => comp = Some(c),
            Some(c0) if c0 != c => return false,
            _ => {}
        }
    }
    comp.is_some_and(|c| sccs.has_cycle[c] && sccs.members[c].len() == set.len())
}

/// The literal Wagner/Landweber checks over the explicit cycle family.
struct Oracle {
    cycles: Vec<(BitSet, bool)>, // (cycle, accepting)
}

impl Oracle {
    fn new(aut: &OmegaAutomaton) -> Self {
        let cycles = accessible_cycles(aut)
            .into_iter()
            .map(|c| {
                let acc = aut.acceptance().accepts_infinity_set(&c);
                (c, acc)
            })
            .collect();
        Oracle { cycles }
    }

    fn is_recurrence(&self) -> bool {
        // No accepting cycle inside a rejecting one.
        !self
            .cycles
            .iter()
            .any(|(j, ja)| *ja && self.cycles.iter().any(|(a, aa)| !*aa && j.is_subset(a)))
    }

    fn is_persistence(&self) -> bool {
        !self
            .cycles
            .iter()
            .any(|(b, ba)| !*ba && self.cycles.iter().any(|(j, ja)| *ja && b.is_subset(j)))
    }

    fn is_simple_reactivity(&self) -> bool {
        // No chain B ⊆ J ⊆ A with B, A rejecting and J accepting.
        !self.cycles.iter().any(|(j, ja)| {
            *ja && self.cycles.iter().any(|(b, ba)| {
                !*ba && b.is_subset(j) && self.cycles.iter().any(|(a, aa)| !*aa && j.is_subset(a))
            })
        })
    }

    /// Safety (`accepting = true`) or guarantee (`false`), literally: no
    /// enumerated cycle of the other status lies in the set of states
    /// that reach a cycle of status `accepting` — the live set, or the
    /// co-live set for guarantee.
    fn closed(&self, aut: &OmegaAutomaton, accepting: bool) -> bool {
        let mut targets = BitSet::new();
        for (c, _) in self.cycles.iter().filter(|(_, a)| *a == accepting) {
            targets.union_with(c);
        }
        let live = reaching(aut, &targets);
        !self
            .cycles
            .iter()
            .any(|(c, a)| *a != accepting && c.is_subset(&live))
    }

    /// The most rejecting cycles on one chain `C₁ ⊆ C₂ ⊆ …` of cycles
    /// with alternating statuses, starting from either status, by
    /// depth-first chain extension; at least 1 by the paper's
    /// convention. A chain with `n` rejecting cycles is what no
    /// intersection of fewer than `n` simple reactivity properties can
    /// carry.
    fn reactivity_index(&self) -> usize {
        fn extend(oracle: &Oracle, from: Option<&BitSet>, accepting: bool) -> usize {
            let mut best = 0;
            for (c, acc) in &oracle.cycles {
                if *acc != accepting || from.is_some_and(|f| !f.is_subset(c)) {
                    continue;
                }
                let rest = extend(oracle, Some(c), !accepting);
                best = best.max(usize::from(!accepting) + rest);
            }
            best
        }
        extend(self, None, false)
            .max(extend(self, None, true))
            .max(1)
    }
}

#[test]
fn classifier_matches_bruteforce_oracle() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let mut rng = StdRng::seed_from_u64(20260705);
    let mut outcomes = [[0usize; 2]; 2];
    for i in 0..250 {
        let k = 1 + (i % 2);
        let (aut, _) = random_streett(&mut rng, &sigma, 5, k, 0.35);
        let oracle = Oracle::new(&aut);
        let c = classify::classify(&aut);
        // Safety and guarantee twice: the kernel queries of a fresh
        // context, and the full verdict.
        let fresh = Analysis::new(aut.clone());
        let (safety, guarantee) = (oracle.closed(&aut, true), oracle.closed(&aut, false));
        assert_eq!(fresh.is_safety(), safety, "safety query, case {i}");
        assert_eq!(c.is_safety, safety, "safety, case {i}");
        assert_eq!(fresh.is_guarantee(), guarantee, "guarantee query, case {i}");
        assert_eq!(c.is_guarantee, guarantee, "guarantee, case {i}");
        outcomes[usize::from(safety)][usize::from(guarantee)] += 1;
        assert_chain_queries(&aut, &oracle, &format!("case {i}"));
    }
    assert!(
        outcomes.iter().flatten().all(|&n| n > 0),
        "every safety/guarantee combination occurs: {outcomes:?}"
    );
}

/// Recurrence, persistence, simple reactivity and the reactivity index
/// of the full verdict against the oracle, and the Rabin index against
/// the oracle's reactivity index of the complement.
fn assert_chain_queries(aut: &OmegaAutomaton, oracle: &Oracle, case: &str) {
    let ctx = Analysis::new(aut.clone());
    let c = ctx.classification();
    assert_eq!(
        c.is_recurrence,
        oracle.is_recurrence(),
        "recurrence, {case}"
    );
    assert_eq!(
        c.is_persistence,
        oracle.is_persistence(),
        "persistence, {case}"
    );
    assert_eq!(
        c.is_simple_reactivity,
        oracle.is_simple_reactivity(),
        "simple reactivity, {case}"
    );
    assert_eq!(
        c.reactivity_index,
        oracle.reactivity_index(),
        "reactivity index, {case}"
    );
    assert_eq!(
        ctx.rabin_index(),
        Oracle::new(&aut.complement()).reactivity_index(),
        "Rabin index, {case}"
    );
    // The verdict agrees with itself: one Streett pair exactly for simple
    // reactivity, and the Rabin index is the complement's reactivity
    // index.
    assert_eq!(
        c.is_simple_reactivity,
        c.reactivity_index == 1,
        "simple reactivity vs index, {case}"
    );
    assert_eq!(
        ctx.rabin_index(),
        Analysis::new(aut.complement()).reactivity_index(),
        "Rabin index vs complement, {case}"
    );
}

/// The chain queries and both indices on parity, Rabin and random
/// boolean (Emerson–Lei) conditions over 4–6 states.
#[test]
fn chain_queries_match_bruteforce_oracle_beyond_streett() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let mut beyond_simple = 0;
    for i in 0..600usize {
        let n = 4 + i % 3;
        let aut = match i % 3 {
            0 => random_parity(&mut rng, &sigma, n, 1 + (i / 3 % 4) as u32),
            1 => random_rabin(&mut rng, &sigma, n, 1 + i / 3 % 3, 0.35),
            _ => random_structure(&mut rng, &sigma, n)
                .with_acceptance(random_acceptance(&mut rng, n, 2)),
        };
        let oracle = Oracle::new(&aut);
        beyond_simple += usize::from(!oracle.is_simple_reactivity());
        assert_chain_queries(&aut, &oracle, &format!("case {i}"));
    }
    assert!(
        beyond_simple > 0,
        "the sweep reaches beyond simple reactivity"
    );
}

/// The union of the accessible cycles that avoid `avoid` and satisfy
/// `acc`: the states on accepting cycles.
fn accepting_cycle_states(cycles: &[BitSet], acc: &Acceptance, avoid: &BitSet) -> BitSet {
    let mut out = BitSet::new();
    for c in cycles {
        if c.is_disjoint(avoid) && acc.accepts_infinity_set(c) {
            out.union_with(c);
        }
    }
    out
}

/// The reachable states from which some state of `targets` is
/// reachable, by fixpoint over the transition relation.
fn reaching(aut: &OmegaAutomaton, targets: &BitSet) -> BitSet {
    let mut out = targets.clone();
    loop {
        let before = out.len();
        for q in 0..aut.num_states() {
            if aut
                .alphabet()
                .symbols()
                .any(|s| out.contains(aut.step(q as u32, s) as usize))
            {
                out.insert(q);
            }
        }
        if out.len() == before {
            break;
        }
    }
    out.intersect_with(&aut.reachable_states());
    out
}

/// Emptiness, the reachable live set, the persistent-cycle sets and
/// accepted-lasso replay against the literal cycle family, through the
/// automaton's own methods and an `Analysis` context alike, on Streett, Rabin,
/// parity and random boolean conditions.
#[test]
fn accepting_cycle_kernel_matches_bruteforce_oracle() {
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let mut rng = StdRng::seed_from_u64(20261017);
    let mut nonempty = 0;
    for i in 0..400usize {
        let n = 3 + i % 4;
        let k = 1 + i % 3;
        let aut = match i % 4 {
            0 => random_streett(&mut rng, &sigma, n, k, 0.35).0,
            1 => random_rabin(&mut rng, &sigma, n, k, 0.35),
            2 => random_parity(&mut rng, &sigma, n, 3),
            _ => random_structure(&mut rng, &sigma, n)
                .with_acceptance(random_acceptance(&mut rng, n, 2)),
        };
        let cycles = accessible_cycles(&aut);
        let good = accepting_cycle_states(&cycles, aut.acceptance(), &BitSet::new());
        let empty = good.is_empty();
        let live = reaching(&aut, &good);
        let ctx = Analysis::new(aut.clone());

        assert_eq!(aut.is_empty(), empty, "case {i}: emptiness");
        assert_eq!(ctx.is_empty(), empty, "case {i}: emptiness (context)");
        let mut free_live = aut.live_states();
        free_live.intersect_with(&aut.reachable_states());
        assert_eq!(free_live, live, "case {i}: live states");
        assert_eq!(*ctx.live(), live, "case {i}: live states (context)");
        for lasso in [aut.accepted_lasso(), ctx.accepted_lasso().cloned()] {
            match lasso {
                Some(w) => assert!(!empty && aut.accepts(&w), "case {i}: lasso replay"),
                None => assert!(empty, "case {i}: missing lasso"),
            }
        }
        nonempty += usize::from(!empty);

        let avoid: BitSet = (0..n).filter(|_| rng.gen_bool(0.3)).collect();
        let acc = random_acceptance(&mut rng, n, 2);
        assert_eq!(
            states_on_accepting_cycles_avoiding(&aut, &acc, &avoid),
            accepting_cycle_states(&cycles, &acc, &avoid),
            "case {i}: states on accepting cycles avoiding {avoid:?} under {acc}"
        );
    }
    assert!(
        (100..=300).contains(&nonempty),
        "{nonempty} non-empty cases"
    );
}

#[test]
fn oracle_agrees_on_witnesses() {
    use temporal_properties::lang::witnesses;
    for (aut, rec, per) in [
        (witnesses::safety(), true, true),
        (witnesses::guarantee(), true, true),
        (witnesses::recurrence(), true, false),
        (witnesses::persistence(), false, true),
        (witnesses::reactivity_witness(1), false, false),
    ] {
        let oracle = Oracle::new(&aut);
        assert_eq!(oracle.is_recurrence(), rec);
        assert_eq!(oracle.is_persistence(), per);
    }
    let oracle = Oracle::new(&witnesses::reactivity_witness(2));
    assert_eq!(oracle.reactivity_index(), 2);
}

#[test]
fn cycle_enumeration_sanity() {
    // The 2-state full flip-flop over {a,b}: cycles are {0}, {1}, {0,1}.
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let b = sigma.symbol("b").unwrap();
    let m = OmegaAutomaton::build(
        &sigma,
        2,
        0,
        |_, s| if s == b { 1 } else { 0 },
        Acceptance::inf([1]),
    );
    let mut cycles = accessible_cycles(&m);
    cycles.sort_by_key(|c| c.len());
    assert_eq!(cycles.len(), 3);
    assert_eq!(cycles[2].len(), 2);
}

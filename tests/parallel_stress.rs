//! Concurrency stress test for the shared [`Analysis`] context: many
//! threads hammer ONE context with interleaved queries and every answer
//! must match a sequential context's, while the per-key once-cell SCC
//! memo keeps the total pass count equal to the sequential one, inside
//! the 2^m color-lattice budget, no matter how the racers interleave (a
//! racer that loses the cell claim blocks on the winner's computation
//! instead of re-running it).

use temporal_properties::automata::analysis::Analysis;
use temporal_properties::automata::omega::OmegaAutomaton;
use temporal_properties::automata::random::rng::{Rng, SeedableRng, StdRng};
use temporal_properties::automata::streett::{StreettPair, StreettPairs};
use temporal_properties::prelude::*;

fn rand_streett<R: Rng>(rng: &mut R, n: usize, pairs: usize) -> OmegaAutomaton {
    let delta: Vec<u32> = (0..n * 2).map(|_| rng.gen_range(0..n) as u32).collect();
    let rand_set = |rng: &mut R| -> Vec<usize> {
        let len = rng.gen_range(0..=n.min(8));
        (0..len).map(|_| rng.gen_range(0..n)).collect()
    };
    let pair_list: Vec<StreettPair> = (0..pairs)
        .map(|_| StreettPair::new(rand_set(rng), rand_set(rng)))
        .collect();
    let alphabet = Alphabet::new(["a", "b"]).unwrap();
    OmegaAutomaton::build(
        &alphabet,
        n,
        0,
        |q, s| delta[q as usize * 2 + s.index()],
        StreettPairs(pair_list).acceptance(n),
    )
}

/// 8 threads × interleaved query mix on one shared context, repeated over
/// several random automata. Every thread's verdicts must equal the
/// sequential reference, and the shared context must run exactly the
/// reference's SCC passes, within the lattice pass budget — the count is
/// the part that would break if two racers could both run the same
/// restricted SCC pass.
#[test]
fn concurrent_queries_agree_with_sequential_and_keep_the_pass_budget() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..6 {
        let n = rng.gen_range(24..=96usize);
        let pairs = rng.gen_range(2..=4usize);
        let aut = rand_streett(&mut rng, n, pairs);
        let m = aut.acceptance().atom_sets().len();

        // Sequential reference on its own context.
        let reference = Analysis::new(aut.clone());
        let ref_verdict = reference.classification().clone();
        let ref_rabin = reference.rabin_index();
        let ref_empty = reference.is_empty();
        let ref_scc_count = reference.sccs(None).len();

        let shared = Analysis::new(aut.clone());
        std::thread::scope(|scope| {
            for worker in 0..8usize {
                let shared = &shared;
                let ref_verdict = &ref_verdict;
                scope.spawn(move || {
                    // Stagger the entry points so different workers race
                    // different caches first.
                    match worker % 4 {
                        0 => assert_eq!(shared.classification(), ref_verdict),
                        1 => assert_eq!(shared.rabin_index(), ref_rabin),
                        2 => assert_eq!(shared.is_empty(), ref_empty),
                        _ => assert_eq!(shared.sccs(None).len(), ref_scc_count),
                    }
                    assert_eq!(shared.classification(), ref_verdict);
                    assert_eq!(shared.rabin_index(), ref_rabin);
                    assert_eq!(shared.is_empty(), ref_empty);
                    assert_eq!(shared.sccs(None).len(), ref_scc_count);
                });
            }
        });

        // Both contexts quotient, and the racers classify on the
        // quotient context, so the passes are read with `stats_total`.
        let passes = shared.stats_total().scc_passes;
        assert!(
            passes <= 1 << m,
            "case {case}: {passes} SCC passes exceed the 2^{m} lattice budget \
             under 8-way contention"
        );
        assert_eq!(
            passes,
            reference.stats_total().scc_passes,
            "case {case}: 8 racers ran a different number of SCC passes \
             than one sequential caller"
        );
    }
}

/// Stats snapshots racing a query workload: readers may see any
/// interleaving, but snapshots and deltas must never underflow or panic,
/// and after the race quiesces a warm re-query answers identically at
/// zero SCC passes.
#[test]
fn stats_snapshots_race_safely() {
    let mut rng = StdRng::seed_from_u64(0x57A75);
    let aut = rand_streett(&mut rng, 48, 3);
    let reference = Analysis::new(aut.clone());
    let ref_verdict = reference.classification().clone();

    let shared = Analysis::new(aut);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let shared = &shared;
            let ref_verdict = &ref_verdict;
            scope.spawn(move || {
                for _ in 0..50 {
                    assert_eq!(shared.classification(), ref_verdict);
                }
            });
        }
        for _ in 0..2 {
            let shared = &shared;
            scope.spawn(move || {
                for _ in 0..50 {
                    // Snapshot and delta must never underflow or panic
                    // mid-race; delta against a later snapshot saturates.
                    let a = shared.stats_total();
                    let b = shared.stats_total();
                    let _ = b.delta_since(a);
                    let _ = a.delta_since(b);
                }
            });
        }
    });

    // After the race quiesces: a warm classification answers
    // identically at zero marginal cost.
    let before = shared.stats_total();
    assert_eq!(shared.classification(), &ref_verdict);
    let warm = shared.stats_total().delta_since(before);
    assert_eq!(warm.scc_passes, 0, "the memo tables answer a warm query");
}

/// Eight threads race `is_subset_of` and `equivalent` over every ordered
/// pair of five shared contexts, passing the other operand as its shared
/// context or as its automaton (both key one memo entry). Every verdict
/// equals a sequential context's, each query is one oracle run or one
/// memo hit, and a second pass over the same queries is all hits: racing
/// misses on one operand leave one entry behind.
#[test]
fn racing_inclusion_queries_agree_and_leave_one_entry_per_operand() {
    let mut rng = StdRng::seed_from_u64(0x1C1D);
    let auts: Vec<OmegaAutomaton> = (0..5)
        .map(|_| {
            let n = rng.gen_range(8..=32usize);
            rand_streett(&mut rng, n, 2)
        })
        .collect();
    let n = auts.len();
    let reference: Vec<Analysis> = auts.iter().map(|a| Analysis::new(a.clone())).collect();
    let want: Vec<Vec<(bool, bool)>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let (a, b) = (&reference[i], &reference[j]);
                    (a.is_subset_of(b), a.equivalent(b))
                })
                .collect()
        })
        .collect();
    let shared: Vec<Analysis> = auts.iter().map(|a| Analysis::new(a.clone())).collect();
    const WORKERS: usize = 8;
    let pass = || {
        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let (shared, auts, want) = (&shared, &auts, &want);
                scope.spawn(move || {
                    // Each worker walks the pairs in its own order.
                    for k in 0..n * n {
                        let cell = (7 * k + 3 * worker) % (n * n);
                        let (i, j) = (cell / n, cell % n);
                        let ctx = &shared[i];
                        let got = if (k + worker) % 2 == 0 {
                            (ctx.is_subset_of(&shared[j]), ctx.equivalent(&shared[j]))
                        } else {
                            (ctx.is_subset_of(&auts[j]), ctx.equivalent(&auts[j]))
                        };
                        assert_eq!(got, want[i][j], "worker {worker}, pair ({i}, {j})");
                    }
                });
            }
        });
        shared
            .iter()
            .map(Analysis::stats_total)
            .fold((0, 0), |(c, h), s| {
                (c + s.inclusion_checks, h + s.inclusion_hits)
            })
    };
    let queries = (WORKERS * n * n * 2) as u64;
    let (checks, hits) = pass();
    assert_eq!(checks + hits, queries, "one run or one hit per query");
    assert!(checks >= (n * n * 2) as u64, "every entry ran once");
    let (again, hits_again) = pass();
    assert_eq!(again, checks, "the second pass ran the oracle");
    assert_eq!(hits_again - hits, queries, "the second pass is all hits");
}

/// The same mixed workload through `Property` handles sharing one
/// underlying automaton each: clones of an `Analysis`-backed value run on
/// distinct contexts, so this pins down that nothing in the crate relies
/// on thread-local state for correctness.
#[test]
fn parallel_batch_matches_sequential_batch() {
    use temporal_properties::automata::classify;
    let mut rng = StdRng::seed_from_u64(271);
    let suite: Vec<OmegaAutomaton> = (0..24)
        .map(|_| {
            let n = rng.gen_range(8..=48usize);
            rand_streett(&mut rng, n, 2)
        })
        .collect();
    let sequential: Vec<_> = suite.iter().map(classify::classify).collect();
    std::thread::scope(|scope| {
        for chunk in suite.chunks(6).zip(sequential.chunks(6)) {
            scope.spawn(move || {
                let (auts, expected) = chunk;
                for (aut, want) in auts.iter().zip(expected) {
                    assert_eq!(&classify::classify(aut), want);
                }
            });
        }
    });
}

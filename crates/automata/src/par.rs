//! A zero-dependency parallel execution layer for the classification
//! stack: a scoped-thread worker pool over [`std::thread::scope`] with a
//! chunked work queue.
//!
//! Batch consumers (`spec-lint --jobs`, the suite audit, the daemon's
//! batch endpoints, the seeded bench sweeps) classify or compare many
//! independent automata in one invocation. That parallelizes
//! embarrassingly, but the workspace is `--offline` with zero external
//! dependencies, so instead of rayon this module provides the minimal
//! primitive everything needs: an order-preserving parallel map. No
//! closure handed to it maps in parallel again, so the pool never nests.
//!
//! Design:
//!
//! * **Scoped workers** — every [`map_with`]/[`map_indices_with`] call spawns
//!   its workers inside [`std::thread::scope`], so borrowed inputs
//!   (`&[T]`, a shared [`crate::analysis::Analysis`]) flow into workers
//!   without `Arc` plumbing, and no thread outlives the call.
//! * **Guided work queue** — workers claim contiguous index chunks from
//!   a single `AtomicUsize` cursor, each claim taking half an even share
//!   of the *remaining* indices (guided self-scheduling): coarse chunks
//!   up front amortize queue traffic, and the geometrically shrinking
//!   tail keeps one expensive chunk from straggling the scope.
//! * **Panic transparency** — a panicking worker re-raises its payload on
//!   the caller thread after the scope joins, so the first failure
//!   surfaces unchanged (see the poison-recovery notes on
//!   [`crate::analysis::Analysis`] for why the caches stay usable).
//!
//! Every map takes its worker count from its caller, and each program
//! states its own default: `spec-lint --jobs` uses the machine's cores,
//! because its one-shot work is cold, while `spec-serve --jobs` and
//! `lint::AuditOptions` use one worker, because a warm batch item takes
//! microseconds and spawning the workers costs more than it saves.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Order-preserving parallel map over a slice with an explicit worker
/// count.
pub fn map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indices_with(threads, items.len(), |i| f(&items[i]))
}

/// Order-preserving parallel map over `0..n`: `result[i] = f(i)`.
///
/// Spawns at most `threads` scoped workers pulling chunks of indices from
/// a shared queue; with `threads <= 1` or a single item it runs inline
/// with no thread spawned at all.
///
/// # Panics
///
/// Re-raises the panic of the first observed panicking worker after all
/// workers have been joined.
pub fn map_indices_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Guided self-scheduling: claim half an even
                        // share of the remaining indices. The first
                        // claims are ~n/(2·threads) — coarser than the
                        // old fixed n/(4·threads) grain, so short queues
                        // see fewer atomic round-trips — and the grain
                        // decays geometrically, so the last claims are
                        // single indices and no worker drags a large
                        // final chunk alone.
                        let mut start = cursor.load(Ordering::Relaxed);
                        let len = loop {
                            if start >= n {
                                break 0;
                            }
                            let grain = ((n - start) / (threads * 2)).max(1);
                            match cursor.compare_exchange_weak(
                                start,
                                start + grain,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            ) {
                                Ok(_) => break grain,
                                Err(current) => start = current,
                            }
                        };
                        if len == 0 {
                            break;
                        }
                        for i in start..start + len {
                            produced.push((i, f(i)));
                        }
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(produced) => {
                    for (i, r) in produced {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is covered by exactly one chunk"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = map_with(threads, &items, |&x| x * x);
            assert_eq!(out.len(), items.len());
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_with(4, &empty, |x| *x).is_empty());
        assert_eq!(map_with(4, &[7u8], |x| *x + 1), vec![8]);
    }

    #[test]
    fn workers_actually_run_concurrent_code_paths() {
        // Each call increments a shared counter; the result must count
        // every index exactly once regardless of interleaving.
        let hits = AtomicU64::new(0);
        let out = map_indices_with(4, 257, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            map_indices_with(4, 100, |i| {
                if i == 37 {
                    panic!("worker 37 dies");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}

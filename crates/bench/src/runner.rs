//! Parallel streaming fold with deterministic, input-ordered results.
//!
//! Every figure/table of the paper is an embarrassingly parallel sweep of
//! independent runs; this module is the one place that knows how to fan
//! such a sweep out over threads. The campaign layer
//! ([`crate::campaign`]) hands it one seed block per item. Guarantees:
//!
//! * **Determinism** — results are folded in input order, and each
//!   item's result is a pure function of the item (the engine is
//!   deterministic), so the thread count never changes any result.
//!   `ScenarioRunner` honors the `RAYON_NUM_THREADS` convention (set it
//!   to `1` to force sequential execution).
//! * **Work stealing** — workers pull the next item off a shared atomic
//!   cursor, so heterogeneous run sizes (a 5-app moment next to a 50-app
//!   mix) don't leave threads idle.
//!
//! ```
//! use iosched_bench::campaign::{run_policy, Arrivals};
//! use iosched_bench::runner::ScenarioRunner;
//! use iosched_bench::PolicySpec;
//! use iosched_model::Platform;
//! use iosched_sim::SimConfig;
//! use iosched_workload::congested_moment;
//!
//! let platform = Platform::vesta();
//! let policy = PolicySpec::parse("maxsyseff").unwrap();
//! let config = SimConfig::default();
//! let effs = ScenarioRunner::new().fold(
//!     0..4u64,
//!     |_, &seed| {
//!         let apps = congested_moment(&platform, seed);
//!         run_policy(&platform, Arrivals::Closed(&apps), policy, &config, None)
//!     },
//!     Vec::new(),
//!     |mut effs, _, outcome| {
//!         effs.push(outcome.unwrap().report.sys_efficiency);
//!         effs
//!     },
//! );
//! assert_eq!(effs.len(), 4);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Parallel, deterministic streaming fold over independent runs.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    threads: usize,
}

impl Default for ScenarioRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioRunner {
    /// A runner sized from the environment: `RAYON_NUM_THREADS` when set
    /// (the convention shared with rayon-based tooling), else the number
    /// of available cores.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        Self { threads }
    }

    /// A runner with an explicit worker count.
    ///
    /// # Panics
    /// Panics when `threads` is zero.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "runner needs at least one thread");
        Self { threads }
    }

    /// Worker threads this runner will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Streaming parallel map-and-fold: map every item of a (possibly
    /// lazy) iterator and fold the results into `init` **in input
    /// order**, without ever materializing the full result vector. The
    /// campaign layer maps seed blocks through it; experiments whose unit
    /// of work is not a fluid simulation (workload-synthesis shards) use
    /// it too.
    ///
    /// Because results are folded in input order and each result is a
    /// pure function of its item, the outcome is bit-identical to a
    /// sequential `for` loop over `items` — the thread count only changes
    /// wall-clock time.
    ///
    /// Items are pulled from the iterator in chunks of a few times the
    /// worker count and each chunk is mapped in parallel, but results
    /// are **streamed** to `fold` in input order as they complete (a
    /// reorder buffer holds out-of-order stragglers) rather than
    /// delivered at a per-chunk join barrier — so peak memory is
    /// `O(threads)` items + results regardless of the sweep length, the
    /// fold observes exactly the order a sequential loop would produce,
    /// and a fold that checkpoints to disk (the shard partial writer)
    /// persists each result as soon as its turn comes, not a chunk
    /// later.
    pub fn fold<T, R, A, M, F>(
        &self,
        items: impl IntoIterator<Item = T>,
        map: M,
        init: A,
        mut fold: F,
    ) -> A
    where
        T: Sync,
        R: Send,
        M: Fn(usize, &T) -> R + Sync,
        F: FnMut(A, usize, R) -> A,
    {
        // Large enough to amortize the per-chunk setup, small enough
        // that a chunk of outcomes never dominates memory.
        let chunk_len = self.threads.max(1) * 4;
        let mut acc = init;
        let mut base = 0usize;
        let mut iter = items.into_iter();
        loop {
            let chunk: Vec<T> = iter.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            let workers = self.threads.min(chunk.len());
            if workers <= 1 {
                // Sequential: fold immediately after each map — the
                // checkpoint granularity a single-threaded shard wants.
                for (offset, t) in chunk.iter().enumerate() {
                    let r = map(base + offset, t);
                    acc = fold(acc, base + offset, r);
                }
            } else {
                let cursor = AtomicUsize::new(0);
                let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
                let mut acc_slot = Some(acc);
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        let tx = tx.clone();
                        let cursor = &cursor;
                        let chunk = &chunk;
                        let map = &map;
                        scope.spawn(move || loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= chunk.len() {
                                break;
                            }
                            let r = map(base + i, &chunk[i]);
                            if tx.send((i, r)).is_err() {
                                break;
                            }
                        });
                    }
                    drop(tx);
                    // In-order delivery: buffer stragglers, fold the
                    // contiguous prefix as it completes.
                    let mut pending: std::collections::BTreeMap<usize, R> =
                        std::collections::BTreeMap::new();
                    let mut next = 0usize;
                    for (i, r) in rx {
                        pending.insert(i, r);
                        while let Some(r) = pending.remove(&next) {
                            let folded =
                                fold(acc_slot.take().expect("accumulator"), base + next, r);
                            acc_slot = Some(folded);
                            next += 1;
                        }
                    }
                });
                acc = acc_slot.expect("accumulator");
            }
            base += chunk.len();
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_policy, Arrivals, RunError};
    use crate::PolicySpec;
    use iosched_model::{AppSpec, Bytes, Platform, Time};
    use iosched_sim::{SimConfig, SimOutcome};

    fn batch(n: usize) -> Vec<(Vec<AppSpec>, PolicySpec)> {
        (0..n)
            .map(|i| {
                let apps = vec![
                    AppSpec::periodic(
                        0,
                        Time::ZERO,
                        200,
                        Time::secs(10.0 + i as f64),
                        Bytes::gib(40.0),
                        3,
                    ),
                    AppSpec::periodic(
                        1,
                        Time::secs(5.0),
                        300,
                        Time::secs(20.0),
                        Bytes::gib(60.0),
                        2,
                    ),
                ];
                let policy = if i % 2 == 0 {
                    "maxsyseff"
                } else {
                    "mindilation"
                };
                (apps, PolicySpec::parse(policy).unwrap())
            })
            .collect()
    }

    /// Run every batch item on `runner`, collecting in fold order.
    fn run(
        runner: &ScenarioRunner,
        batch: &[(Vec<AppSpec>, PolicySpec)],
    ) -> Vec<Result<SimOutcome, RunError>> {
        let platform = Platform::vesta();
        let config = SimConfig::default();
        runner.fold(
            batch,
            |_, (apps, policy)| {
                run_policy(&platform, Arrivals::Closed(apps), *policy, &config, None)
            },
            Vec::new(),
            |mut results, _, r| {
                results.push(r);
                results
            },
        )
    }

    #[test]
    fn results_are_input_ordered_and_thread_count_invariant() {
        let batch = batch(12);
        let parallel = run(&ScenarioRunner::with_threads(4), &batch);
        let sequential = run(&ScenarioRunner::with_threads(1), &batch);
        assert_eq!(parallel.len(), batch.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.events, s.events);
            assert_eq!(
                p.report.sys_efficiency.to_bits(),
                s.report.sys_efficiency.to_bits()
            );
        }
    }

    #[test]
    fn map_preserves_indices() {
        // The map sees each item's global input index, across chunks.
        let runner = ScenarioRunner::with_threads(3);
        let items: Vec<usize> = (0..100).collect();
        let out = runner.fold(
            &items,
            |i, &x| i * 1000 + x,
            Vec::new(),
            |mut out, _, r| {
                out.push(r);
                out
            },
        );
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 1000 + i);
        }
    }

    #[test]
    fn fold_matches_sequential_fold_and_sees_input_order() {
        let runner = ScenarioRunner::with_threads(4);
        let items: Vec<usize> = (0..53).collect(); // not a chunk multiple
        let mut seen = Vec::new();
        let sum = runner.fold(
            items.iter().copied(),
            |i, &x| i * 7 + x,
            0usize,
            |acc, i, r| {
                seen.push(i);
                acc + r
            },
        );
        let expected: usize = (0..53).map(|i| i * 7 + i).sum();
        assert_eq!(sum, expected);
        assert_eq!(seen, (0..53).collect::<Vec<_>>(), "fold order broken");
    }

    #[test]
    fn errors_surface_in_place() {
        let mut batch = batch(3);
        // Blow the processor budget of the middle item.
        batch[1].0.push(AppSpec::periodic(
            2,
            Time::ZERO,
            10_000_000,
            Time::secs(1.0),
            Bytes::gib(1.0),
            1,
        ));
        let results = run(&ScenarioRunner::with_threads(2), &batch);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(RunError::Engine(_))));
        assert!(results[2].is_ok());
    }
}

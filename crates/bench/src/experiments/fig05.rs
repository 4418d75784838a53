//! **Fig. 5** — "Characteristics of applications running on Intrepid in
//! 2013": (a) system usage per day per application type, (b) percentage
//! of time spent doing I/O per application type.
//!
//! We synthesize a year-long Darshan-like log with the calibrated
//! category mixture and report the same two statistics.

use crate::runner::ScenarioRunner;
use iosched_model::Platform;
use iosched_workload::categories::AppCategory;
use iosched_workload::DarshanLog;

/// Per-category statistics over the synthetic year.
#[derive(Debug, Clone)]
pub struct CategoryRow {
    /// Which class.
    pub category: AppCategory,
    /// Number of jobs.
    pub jobs: usize,
    /// Share of total node-seconds (the Fig. 5a quantity).
    pub usage_share: f64,
    /// Mean fraction of runtime spent in I/O (the Fig. 5b quantity).
    pub mean_io_fraction: f64,
}

/// Shards the synthetic year is split into. Fixed (not thread-count
/// derived) so the merged log is identical no matter how many workers
/// the runner uses.
const SHARDS: usize = 8;

/// Synthesize the year and aggregate per category.
///
/// The year-long log is synthesized in 8 deterministic shards
/// (seeded from `seed` and the shard index) fanned out on the
/// [`ScenarioRunner`]'s streaming fold: each shard's records are merged
/// into the accumulating log as soon as the input-ordered fold reaches
/// it, so only in-flight shards are alive at once — never the full list
/// of shard logs.
#[must_use]
pub fn run(jobs: usize, seed: u64) -> Vec<CategoryRow> {
    let platform = Platform::intrepid();
    let shard_sizes: Vec<(u64, usize)> = (0..SHARDS)
        .map(|shard| {
            let shard_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(shard as u64);
            // Distribute `jobs` as evenly as possible over the shards.
            let n = jobs / SHARDS + usize::from(shard < jobs % SHARDS);
            (shard_seed, n)
        })
        .collect();
    let log = ScenarioRunner::new().fold(
        shard_sizes,
        |_, &(shard_seed, n)| DarshanLog::synthesize_year(&platform, shard_seed, n),
        DarshanLog::default(),
        |mut log, _, shard| {
            log.records.extend(shard.records);
            log
        },
    );
    let total_node_seconds: f64 = log
        .records
        .iter()
        .map(|r| r.nodes as f64 * r.runtime())
        .sum();
    AppCategory::ALL
        .iter()
        .map(|&category| {
            let recs: Vec<_> = log
                .records
                .iter()
                .filter(|r| r.category() == category)
                .collect();
            let node_seconds: f64 = recs.iter().map(|r| r.nodes as f64 * r.runtime()).sum();
            let mean_io = if recs.is_empty() {
                0.0
            } else {
                recs.iter().map(|r| r.io_fraction()).sum::<f64>() / recs.len() as f64
            };
            CategoryRow {
                category,
                jobs: recs.len(),
                usage_share: node_seconds / total_node_seconds,
                mean_io_fraction: mean_io,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_and_follow_the_shape() {
        let rows = run(5_000, 1);
        let total: f64 = rows.iter().map(|r| r.usage_share).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Fig. 5b shape: I/O fraction grows with the size class.
        assert!(rows[0].mean_io_fraction < rows[2].mean_io_fraction);
        // All classes present.
        assert!(rows.iter().all(|r| r.jobs > 0));
    }
}

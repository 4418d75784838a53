//! **Fig. 1** — "I/O throughput decrease (percentage per application,
//! over 400 applications)" on Intrepid.
//!
//! We sample congested moments on the Intrepid platform, run the native
//! (uncoordinated fair-share, no burst buffer) baseline, and measure every
//! application's effective I/O-throughput decrease relative to dedicated
//! mode. The paper's headline: decreases reach ~70 % ("a decrease in I/O
//! throughput of 67 %", abstract).

use crate::campaign::{fold_outcomes, CampaignSpec, PlatformSpec};
use crate::runner::ScenarioRunner;
use crate::PolicySpec;
use iosched_model::{stats, Interference, Platform};
use iosched_workload::WorkloadSpec;

/// Distribution of per-application throughput decrease.
#[derive(Debug, Clone)]
pub struct Fig01Result {
    /// Per-application decreases (fractions in `[0, 1]`), sorted
    /// descending — the paper plots them per application.
    pub decreases: Vec<f64>,
}

impl Fig01Result {
    /// Maximum observed decrease.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.decreases.first().copied().unwrap_or(0.0)
    }

    /// Median decrease.
    #[must_use]
    pub fn median(&self) -> f64 {
        if self.decreases.is_empty() {
            0.0
        } else {
            stats::percentile(&self.decreases, 50.0)
        }
    }
}

/// Collect at least `target_apps` application samples (the paper uses
/// 400) from successive congested moments.
///
/// Seeds are swept in batches of 16, each batch one campaign folded in
/// seed order, so the collected distribution is identical to a
/// sequential sweep.
#[must_use]
pub fn run(target_apps: usize) -> Fig01Result {
    const BATCH: u64 = 16;
    // The native stack without burst buffers: uncoordinated fair sharing
    // on the penalized platform.
    let platform = PlatformSpec::Custom(
        Platform::intrepid().with_interference(Interference::default_penalty()),
    );
    let runner = ScenarioRunner::new();
    let mut decreases = Vec::with_capacity(target_apps);
    let mut seed = 0u64;
    while decreases.len() < target_apps && seed < 10_000 {
        let spec = CampaignSpec {
            name: "fig01".into(),
            platforms: vec![platform.clone()],
            workloads: vec![WorkloadSpec::Congestion { seed: 0 }],
            policies: vec![PolicySpec::FairShare],
            seeds: (seed..seed + BATCH).collect(),
            config: None,
            threads: None,
        };
        fold_outcomes(&spec, &runner, (), |(), _, out| {
            for o in &out.report.per_app {
                decreases.push(o.io_throughput_decrease());
            }
        })
        .expect("congested moments are valid scenarios");
        seed += BATCH;
    }
    decreases.truncate(target_apps);
    decreases.sort_by(|a, b| b.total_cmp(a));
    Fig01Result { decreases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_reaches_the_paper_range() {
        let r = run(120);
        assert_eq!(r.decreases.len(), 120);
        // Headline: decreases up to ~67-70 %.
        assert!(
            r.max() > 0.5,
            "max decrease {:.2} far below the paper's ~0.67",
            r.max()
        );
        assert!(r.max() <= 1.0);
        // Congestion hurts a majority of applications.
        assert!(
            r.median() > 0.05,
            "median {:.3} suspiciously low",
            r.median()
        );
        // Sorted descending.
        for w in r.decreases.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}

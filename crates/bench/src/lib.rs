//! # iosched-bench
//!
//! Experiment runners regenerating **every table and figure** of the
//! paper's evaluation (§4 simulations, §5 Vesta experiments), plus the
//! ablations of [`experiments::ablations`].
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! structured rows (so integration tests can assert the paper's *shape*
//! claims without parsing stdout) and has a thin binary under `src/bin/`
//! that prints the same rows the paper reports.
//!
//! Run counts scale with the `REPRO_RUNS` environment variable (default
//! shown per experiment); the binaries also accept a single integer
//! argument overriding it.

pub mod campaign;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod shard;

pub use campaign::{
    fold_outcomes, platform_preset, run_campaign, run_campaign_observed, CampaignResult,
    CampaignSpec, CellSummary, PlatformSpec, RunMetrics, ScenarioSpec,
};
pub use runner::ScenarioRunner;
pub use scenario::{PolicySpec, Scenario};

/// Resolve the number of randomized repetitions: first CLI argument if
/// parseable, else `REPRO_RUNS`, else `default`.
#[must_use]
pub fn runs_from_env(default: usize) -> usize {
    if let Some(arg) = std::env::args().nth(1) {
        if let Ok(n) = arg.parse::<usize>() {
            return n.max(1);
        }
    }
    std::env::var("REPRO_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(default, |n: usize| n.max(1))
}

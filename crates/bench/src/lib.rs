//! # iosched-bench
//!
//! Experiment runners regenerating **every table and figure** of the
//! paper's evaluation (§4 simulations, §5 Vesta experiments), plus the
//! ablations of [`experiments::ablations`].
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! structured rows, so integration tests can assert the paper's *shape*
//! claims without parsing text. [`repro`] is the one table of render
//! targets over them — `iosched repro <target> [--runs N]` prints the
//! rows the paper reports, and `iosched repro` lists every target with
//! its default count.

pub mod campaign;
pub mod experiments;
pub mod report;
pub mod repro;
pub mod runner;
pub mod scenario;
pub mod shard;

pub use campaign::{
    fold_outcomes, platform_preset, run_campaign, run_campaign_observed, CampaignResult,
    CampaignSpec, CellSummary, PlatformSpec, RunMetrics, ScenarioSpec,
};
pub use runner::ScenarioRunner;
pub use scenario::{PolicySpec, Scenario};

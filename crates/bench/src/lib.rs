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
//!
//! The policy half of every run is the scenario-aware registry of
//! [`iosched_core::registry`], re-exported here with [`PolicySpec`] as
//! the name of its factory: the policy-name grammar of
//! [`PolicySpec::parse`]/[`PolicySpec::name`] is also the serde
//! representation, so report keys, CLI arguments and campaign JSON share
//! one vocabulary. [`campaign::run_policy`] builds one for its arrivals
//! and runs it.

pub mod campaign;
pub mod experiments;
pub mod report;
pub mod repro;
pub mod runner;
pub mod shard;

pub use campaign::{
    fold_outcomes, platform_preset, run_campaign, run_campaign_observed, run_policy, Arrivals,
    CampaignResult, CampaignSpec, CellSummary, PlatformSpec, RunError, RunMetrics, ScenarioSpec,
};
pub use iosched_core::registry::{ControlFactory, PeriodicFactory, PolicyFactory as PolicySpec};
pub use runner::ScenarioRunner;

//! **Congestion storms** — closed-loop `control:*` scheduling vs the
//! open-loop roster under §7-style external communication spikes.
//!
//! None of the paper's policies can *react* when the shared pipe is
//! squeezed by traffic they do not control: the online heuristics keep
//! re-ranking a static model and the periodic timetables replay a plan
//! built for the full bandwidth. This experiment puts the adaptive
//! `control:pi` family (a PI feedback loop on the engine's congestion
//! telemetry, following "Mitigating Shared Storage Congestion Using
//! Control Theory") head-to-head with FairShare and the
//! Insert-In-Schedule-Cong periodic schedule on congested moments whose
//! PFS is periodically raided by a communication storm.
//!
//! The whole experiment is one declarative [`CampaignSpec`] — exported
//! as `examples/campaign_control.json` and pinned bit-for-bit by
//! `tests/campaign_spec.rs`; `tests/control_loop.rs` asserts the
//! closed-loop acceptance criterion (strictly better max-dilation than
//! FairShare at ≤ 5 % system-efficiency cost) on it.

use crate::campaign::{run_campaign, CampaignResult, CampaignSpec, PlatformSpec};
use crate::runner::ScenarioRunner;
use crate::PolicySpec;
use iosched_model::Time;
use iosched_sim::{ExternalLoad, SimConfig};
use iosched_workload::WorkloadSpec;

/// Seeds (= congested moments) the checked-in campaign averages over.
pub const STORM_SEEDS: usize = 5;

/// The storm: every 4 simulated minutes the communication traffic takes
/// 70 % of the PFS bandwidth away for 90 s — long enough for backlog to
/// build, short enough that the open-loop plans are wrong on both
/// flanks.
#[must_use]
pub fn spike_load() -> ExternalLoad {
    ExternalLoad {
        period: Time::secs(240.0),
        busy: Time::secs(90.0),
        fraction: 0.7,
    }
}

/// The policy axis: the default closed loop, a faster-gain variant, and
/// the open-loop references (uncoordinated FairShare, the paper's
/// MinDilation heuristic, the offline periodic schedule).
#[must_use]
pub fn policies() -> Vec<PolicySpec> {
    [
        "control:pi",
        "control:pi:kp=1:set=0.85",
        "fairshare",
        "mindilation",
        "periodic:cong",
    ]
    .iter()
    .map(|name| PolicySpec::parse(name).expect("roster names parse"))
    .collect()
}

/// The storm sweep as data: `intrepid × congested moments × policies ×
/// seeds`, with the spike load and telemetry export in the shared
/// engine configuration.
#[must_use]
pub fn campaign(seeds: usize) -> CampaignSpec {
    CampaignSpec {
        name: "control-storm".into(),
        platforms: vec![PlatformSpec::Preset("intrepid".into())],
        workloads: vec![WorkloadSpec::Congestion { seed: 0 }],
        policies: policies(),
        seeds: (0..seeds as u64).collect(),
        config: Some(SimConfig {
            external_load: Some(spike_load()),
            telemetry: true,
            ..SimConfig::default()
        }),
        threads: None,
    }
}

/// Execute the storm campaign (per-cell aggregates are thread-count
/// invariant).
#[must_use]
pub fn run(seeds: usize) -> CampaignResult {
    run_campaign(&campaign(seeds), &ScenarioRunner::new()).expect("control campaign is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_shape_matches_the_exported_file() {
        let spec = campaign(STORM_SEEDS);
        assert_eq!(spec.cell_count(), policies().len());
        assert_eq!(spec.total_runs(), policies().len() * STORM_SEEDS);
        let config = spec.config.as_ref().unwrap();
        assert!(config.telemetry, "cells aggregate telemetry utilization");
        assert_eq!(config.external_load, Some(spike_load()));
        spec.validate().unwrap();
    }

    #[test]
    fn storm_campaign_runs_and_aggregates_telemetry() {
        let result = run(2);
        assert_eq!(result.cells.len(), policies().len());
        for cell in &result.cells {
            assert_eq!(cell.runs, 2);
            let utilization = cell
                .utilization
                .as_ref()
                .expect("telemetry flag populates the cell aggregate");
            assert!(utilization.mean > 0.0 && utilization.mean <= 1.0 + 1e-9);
            assert!(cell.dilation.min >= 1.0);
        }
    }
}

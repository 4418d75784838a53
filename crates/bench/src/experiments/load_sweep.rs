//! **Open-system load sweep** — per-λ saturation curves for the policy
//! roster, the first experiment family the paper itself cannot express.
//!
//! The paper's evaluation is closed: every roster is known at `t = 0`
//! and the objectives are judged at the end. Both "Periodic I/O
//! scheduling for super-computers" and "Mitigating Shared Storage
//! Congestion Using Control Theory" instead evaluate the *open* regime:
//! jobs arrive as a Poisson stream of rate λ, and each policy is judged
//! by where it saturates — the λ beyond which queues and stretches blow
//! up. This module sweeps λ × policy × seed over streams of
//! congested-moment shapes on Intrepid: each workload axis entry is one
//! [`WorkloadSpec::Stream`] at a different arrival rate, every run
//! trims a warmup transient, and the per-cell
//! [`CellSummary::queue`](crate::campaign::CellSummary::queue) /
//! [`CellSummary::stretch`](crate::campaign::CellSummary::stretch)
//! aggregates are the saturation curves.
//!
//! The whole experiment is one declarative [`CampaignSpec`] — exported
//! as `examples/campaign_stream.json` and pinned bit-for-bit by
//! `tests/campaign_spec.rs`.

use crate::campaign::{run_campaign, CampaignResult, CampaignSpec, PlatformSpec};
use crate::runner::ScenarioRunner;
use crate::PolicySpec;
use iosched_model::Time;
use iosched_sim::SimConfig;
use iosched_workload::{ArrivalProcess, StopRule, WorkloadSpec};

/// Seeds (arrival streams + template pools) averaged per cell.
pub const SWEEP_SEEDS: usize = 3;

/// Applications per stream. Congested-moment shapes keep a job in the
/// system for ~15–45 simulated minutes, so 120 arrivals are enough for
/// the post-warmup window to show steady-state behaviour at every λ.
pub const STREAM_APPS: usize = 120;

/// Steady-state transient trimmed from every run, seconds.
pub const WARMUP_SECS: f64 = 2_000.0;

/// The λ axis, arrivals per second. Congested-moment shapes offer
/// ~900 B·s of I/O per arrival, putting the measured saturation rate at
/// λ* ≈ 0.0011/s (delivered utilization hits 1.0 there); the axis walks
/// the system from a comfortably subcritical ~0.45 utilization through
/// the knee and into outright saturation.
#[must_use]
pub fn lambdas() -> Vec<f64> {
    vec![0.0005, 0.0008, 0.0011, 0.0014]
}

/// One open-system stream at arrival rate λ: Poisson arrivals drawing
/// shapes from the seeded congested-moment pool.
#[must_use]
pub fn stream_workload(lambda: f64) -> WorkloadSpec {
    WorkloadSpec::Stream {
        arrivals: ArrivalProcess::Poisson { rate: lambda },
        template: Box::new(WorkloadSpec::Congestion { seed: 0 }),
        stop: StopRule::Apps(STREAM_APPS),
        seed: 0,
    }
}

/// The policy axis: the uncoordinated baseline, the paper's
/// dilation-oriented heuristic, the closed feedback loop, and the
/// offline periodic schedule — planned over the *whole* stream roster,
/// the arrival-blind reference. A default-`tmax` period cannot place
/// 120 stream applications at once (every candidate starves someone),
/// so the sweep runs the `tmax=32` form: the period stretches until the
/// full roster packs, and the per-λ curves show what that over-planning
/// costs when arrivals actually trickle in.
#[must_use]
pub fn policies() -> Vec<PolicySpec> {
    [
        "fairshare",
        "mindilation",
        "control:pi",
        "periodic:cong:tmax=32",
    ]
    .iter()
    .map(|name| PolicySpec::parse(name).expect("roster names parse"))
    .collect()
}

/// The 10k-application bounded-memory demonstration stream: Poisson
/// arrivals at ~90 % of the saturation rate, so the system stays
/// *stable* with ~10–50 congested-moment shapes in flight at any
/// instant (mean I/O queue ≈ 8, peak live ≈ 52), 80× longer than the
/// sweep streams. `tests/perf_bars.rs` runs it both lazily
/// (`WorkloadSpec::app_source` + `simulate_stream`) and fully
/// materialized to hold the bounded-memory bar; the `sim_throughput`
/// `stream_10k_sim` case and the decision-trace overhead bar in
/// `tests/obs_identity.rs` replay a pre-collected arrival list, so they
/// time the engine without the workload synthesis.
#[must_use]
pub fn stream_10k() -> WorkloadSpec {
    WorkloadSpec::Stream {
        arrivals: ArrivalProcess::Poisson { rate: 0.001 },
        template: Box::new(WorkloadSpec::Congestion { seed: 0 }),
        stop: StopRule::Apps(10_000),
        seed: 0,
    }
}

/// The load sweep as data: `intrepid × λ × policies × seeds`, with the
/// warmup window in the shared engine configuration.
#[must_use]
pub fn campaign(seeds: usize) -> CampaignSpec {
    CampaignSpec {
        name: "load-sweep".into(),
        platforms: vec![PlatformSpec::Preset("intrepid".into())],
        workloads: lambdas().into_iter().map(stream_workload).collect(),
        policies: policies(),
        seeds: (0..seeds as u64).collect(),
        config: Some(SimConfig {
            warmup: Time::secs(WARMUP_SECS),
            telemetry: true,
            ..SimConfig::default()
        }),
        threads: None,
    }
}

/// Execute the sweep (per-cell aggregates are thread-count invariant).
#[must_use]
pub fn run(seeds: usize) -> CampaignResult {
    run_campaign(&campaign(seeds), &ScenarioRunner::new()).expect("load sweep is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_shape_matches_the_exported_file() {
        let spec = campaign(SWEEP_SEEDS);
        assert_eq!(spec.workloads.len(), lambdas().len());
        assert!(spec.workloads.iter().all(WorkloadSpec::is_open));
        assert_eq!(spec.cell_count(), lambdas().len() * policies().len());
        let config = spec.config.as_ref().unwrap();
        assert!(
            config.warmup.as_secs() > 0.0,
            "cells aggregate steady state"
        );
        assert!(config.telemetry);
        spec.validate().unwrap();
    }

    /// One seed, lowest vs highest λ: the sweep's reason to exist is
    /// that queues grow with the arrival rate.
    #[test]
    fn saturation_grows_with_lambda() {
        let spec = CampaignSpec {
            workloads: vec![
                stream_workload(lambdas()[0]),
                stream_workload(*lambdas().last().unwrap()),
            ],
            policies: vec![PolicySpec::parse("fairshare").unwrap()],
            seeds: vec![0],
            ..campaign(SWEEP_SEEDS)
        };
        let result = run_campaign(&spec, &ScenarioRunner::new()).expect("sweep runs");
        assert_eq!(result.cells.len(), 2);
        let low = result.cells[0].queue.as_ref().expect("steady aggregates");
        let high = result.cells[1].queue.as_ref().expect("steady aggregates");
        assert!(
            high.mean > 2.0 * low.mean,
            "queue must grow with λ: {} vs {}",
            low.mean,
            high.mean
        );
        let low_stretch = result.cells[0].stretch.as_ref().unwrap();
        let high_stretch = result.cells[1].stretch.as_ref().unwrap();
        assert!(low_stretch.mean >= 1.0);
        assert!(
            high_stretch.mean > low_stretch.mean,
            "stretch must grow with λ: {} vs {}",
            low_stretch.mean,
            high_stretch.mean
        );
    }
}

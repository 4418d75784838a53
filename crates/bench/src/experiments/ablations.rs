//! Ablations beyond the paper: fine-grained γ sweep,
//! burst-buffer capacity sweep for the native baseline, and the
//! period-search ε sensitivity.
//!
//! All three sweeps are declarative [`CampaignSpec`]s aggregated per cell
//! by the streaming [`run_campaign`]: the γ sweep puts the gammas on the
//! *policy* axis, the capacity sweep puts one custom platform per
//! capacity on the *platform* axis, and — since the scenario-aware
//! registry made offline schedules roster members — the ε sweep puts one
//! `periodic:cong:eps=<ε>` factory per step on the policy axis, so every
//! candidate search runs against the same materialized congested moment
//! and its winning timetable is scored *in the fluid engine* instead of
//! only on paper.

use crate::campaign::{run_campaign, CampaignSpec, PlatformSpec};
use crate::runner::ScenarioRunner;
use crate::scenario::{PeriodicFactory, PolicySpec};
use iosched_core::baselines::native_platform;
use iosched_core::heuristics::{BasePolicy, PolicyKind};
use iosched_core::periodic::{InsertionHeuristic, PeriodicAppSpec};
use iosched_model::{BurstBufferSpec, Platform, Time};
use iosched_sim::SimConfig;
use iosched_workload::congestion::congested_moment;
use iosched_workload::WorkloadSpec;

/// γ sweep: how MinMax-γ trades Dilation for SysEfficiency (extends
/// Figures 9/12 from three γ values to a full curve).
#[derive(Debug, Clone)]
pub struct GammaRow {
    /// Threshold γ.
    pub gamma: f64,
    /// Mean SysEfficiency over the cases.
    pub sys_efficiency: f64,
    /// Mean Dilation.
    pub dilation: f64,
}

/// The γ grid: `steps` points spanning `[0, 1]`.
///
/// # Panics
/// Panics when `steps < 2` (both endpoints are required).
#[must_use]
pub fn gammas(steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "need at least the two endpoint gammas");
    (0..steps).map(|i| i as f64 / (steps - 1) as f64).collect()
}

/// The γ-sweep campaign: `native:intrepid × congestion × {MinMax-γ} ×
/// cases`.
#[must_use]
pub fn gamma_campaign(steps: usize, cases: usize) -> CampaignSpec {
    CampaignSpec {
        name: "ablation-gamma".into(),
        platforms: vec![PlatformSpec::Native("intrepid".into())],
        workloads: vec![WorkloadSpec::Congestion { seed: 0 }],
        policies: gammas(steps)
            .into_iter()
            .map(|gamma| PolicySpec::Kind(PolicyKind::plain(BasePolicy::MinMax(gamma))))
            .collect(),
        seeds: (0..cases as u64).collect(),
        config: None,
        threads: None,
    }
}

/// Sweep γ over `steps` points on `cases` Intrepid congested moments.
#[must_use]
pub fn gamma_sweep(steps: usize, cases: usize) -> Vec<GammaRow> {
    let spec = gamma_campaign(steps, cases);
    let result = run_campaign(&spec, &ScenarioRunner::new()).expect("gamma campaign is valid");
    gammas(steps)
        .into_iter()
        .zip(&result.cells)
        .map(|(gamma, cell)| GammaRow {
            gamma,
            sys_efficiency: cell.sys_efficiency.mean,
            dilation: cell.dilation.mean,
        })
        .collect()
}

/// Burst-buffer capacity sweep: how much buffer the *native* scheduler
/// needs before it matches the global heuristics.
#[derive(Debug, Clone)]
pub struct BbCapacityRow {
    /// Buffer capacity in seconds of full-PFS absorption.
    pub capacity_secs: f64,
    /// Mean native SysEfficiency over the cases.
    pub sys_efficiency: f64,
}

/// The capacity-sweep campaign: one custom platform per capacity on the
/// platform axis, fair sharing with the buffer enabled.
#[must_use]
pub fn bb_capacity_campaign(capacities_secs: &[f64], cases: usize) -> CampaignSpec {
    let base = native_platform(Platform::intrepid());
    CampaignSpec {
        name: "ablation-bb-capacity".into(),
        platforms: capacities_secs
            .iter()
            .map(|&secs| {
                let mut platform = base.clone().with_burst_buffer(BurstBufferSpec {
                    capacity: base.total_bw * Time::secs(secs),
                    absorb_bw: base.total_bw * 4.0,
                });
                platform.name = format!("{}-bb{secs}s", base.name);
                PlatformSpec::Custom(platform)
            })
            .collect(),
        workloads: vec![WorkloadSpec::Congestion { seed: 0 }],
        policies: vec![PolicySpec::FairShare],
        seeds: (0..cases as u64).collect(),
        config: Some(SimConfig::with_burst_buffer()),
        threads: None,
    }
}

/// Sweep capacities (in seconds of `B`) on Intrepid congested moments.
#[must_use]
pub fn bb_capacity_sweep(capacities_secs: &[f64], cases: usize) -> Vec<BbCapacityRow> {
    let spec = bb_capacity_campaign(capacities_secs, cases);
    let result =
        run_campaign(&spec, &ScenarioRunner::new()).expect("bb-capacity campaign is valid");
    capacities_secs
        .iter()
        .zip(&result.cells)
        .map(|(&secs, cell)| BbCapacityRow {
            capacity_secs: secs,
            sys_efficiency: cell.sys_efficiency.mean,
        })
        .collect()
}

/// ε sweep: period-search granularity vs periodic schedule quality.
#[derive(Debug, Clone)]
pub struct EpsilonRow {
    /// Search step ε.
    pub epsilon: f64,
    /// Candidate periods the search evaluates at this ε.
    pub candidates: usize,
    /// Dilation of the winning schedule *replayed in the fluid engine*
    /// over the congested moment (was: analytic steady state, before the
    /// sweep became a campaign).
    pub dilation: f64,
}

/// The fixed Intrepid congested moment the ε sweep schedules (case 17,
/// as in the pre-campaign hand-rolled sweep).
pub const EPSILON_CASE_SEED: u64 = 17;

/// The ε-sweep campaign: `intrepid × congestion(case 17) ×
/// {periodic:cong:eps=ε}` — one offline factory per sweep point on the
/// policy axis. Every factory's period search runs against the same
/// materialized workload (one materialization per seed block, shared
/// across the whole policy axis).
#[must_use]
pub fn epsilon_campaign(epsilons: &[f64]) -> CampaignSpec {
    CampaignSpec {
        name: "ablation-epsilon".into(),
        platforms: vec![PlatformSpec::Preset("intrepid".into())],
        workloads: vec![WorkloadSpec::Congestion { seed: 0 }],
        policies: epsilons
            .iter()
            .map(|&epsilon| {
                PolicySpec::Periodic(
                    PeriodicFactory::new(InsertionHeuristic::Congestion).with_epsilon(epsilon),
                )
            })
            .collect(),
        seeds: vec![EPSILON_CASE_SEED],
        config: None,
        threads: None,
    }
}

/// Sweep ε on the fixed congested moment. Schedule quality comes from
/// the campaign (engine replay of each winning timetable); the candidate
/// counts come from the search progression itself, which
/// [`iosched_core::periodic::PeriodSearch::candidate_count`] replays
/// without building a single schedule.
#[must_use]
pub fn epsilon_sweep(epsilons: &[f64]) -> Vec<EpsilonRow> {
    let spec = epsilon_campaign(epsilons);
    let result = run_campaign(&spec, &ScenarioRunner::new()).expect("epsilon campaign is valid");
    let platform = Platform::intrepid();
    let apps: Vec<PeriodicAppSpec> = congested_moment(&platform, EPSILON_CASE_SEED)
        .iter()
        .map(|a| PeriodicAppSpec::from_app(a).expect("generator emits periodic apps"))
        .collect();
    epsilons
        .iter()
        .zip(&result.cells)
        .map(|(&epsilon, cell)| EpsilonRow {
            epsilon,
            candidates: PeriodicFactory::new(InsertionHeuristic::Congestion)
                .with_epsilon(epsilon)
                .search()
                .expect("positive epsilon")
                .candidate_count(&platform, &apps),
            dilation: cell.dilation.mean,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_endpoints_recover_the_named_heuristics() {
        let rows = gamma_sweep(3, 3);
        assert_eq!(rows.len(), 3);
        // γ=0 (MaxSysEff end) should not lose SysEfficiency to γ=1
        // (MinDilation end), and vice versa for Dilation.
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        assert!(first.sys_efficiency >= last.sys_efficiency - 0.02);
        assert!(last.dilation <= first.dilation + 0.1);
    }

    #[test]
    fn more_bb_capacity_never_hurts_much() {
        let rows = bb_capacity_sweep(&[0.5, 60.0, 600.0], 2);
        assert_eq!(rows.len(), 3);
        assert!(
            rows[2].sys_efficiency >= rows[0].sys_efficiency - 0.02,
            "600 s of buffer ({:.3}) should beat 0.5 s ({:.3})",
            rows[2].sys_efficiency,
            rows[0].sys_efficiency
        );
    }

    #[test]
    fn finer_epsilon_tries_more_candidates_and_is_no_worse() {
        let rows = epsilon_sweep(&[0.5, 0.05]);
        assert!(rows[1].candidates > rows[0].candidates);
        // The finer search wins on the analytic objective it optimizes;
        // the engine replay adds finite-horizon effects (releases,
        // partial last periods), so allow a small tolerance around the
        // "no worse" claim.
        assert!(rows.iter().all(|r| r.dilation.is_finite()));
        assert!(
            rows[1].dilation <= rows[0].dilation + 0.25,
            "eps 0.05 dilation {} should not lose to eps 0.5 ({})",
            rows[1].dilation,
            rows[0].dilation
        );
    }

    #[test]
    fn sweep_campaigns_are_valid_and_shaped_right() {
        let gamma = gamma_campaign(5, 4);
        gamma.validate().unwrap();
        assert_eq!(gamma.cell_count(), 5);
        assert_eq!(gamma.total_runs(), 20);
        let bb = bb_capacity_campaign(&[1.0, 10.0], 3);
        bb.validate().unwrap();
        assert_eq!(bb.cell_count(), 2);
        assert!(bb.config.as_ref().unwrap().use_burst_buffer);
        let eps = epsilon_campaign(&[0.5, 0.1]);
        eps.validate().unwrap();
        assert_eq!(eps.cell_count(), 2);
        assert!(eps.policies.iter().all(PolicySpec::is_offline));
        assert_eq!(eps.policies[1].name(), "periodic:cong:eps=0.1");
    }
}

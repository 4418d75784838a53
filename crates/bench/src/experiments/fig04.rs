//! **Fig. 4** — "A periodic schedule, and the detail of one of its regular
//! periods", with the paper's exact application parameters:
//!
//! ```text
//! (w=3.5,  vol=240, n_per=3)   (w=27.5, vol=288, n_per=3)
//! (w=90,   vol=350, n_per=1)   (w=75,   vol=524, n_per=1)
//! ```
//!
//! The figure's units are abstract; we use seconds and "volume units" on
//! a platform with `B = 100 units/s` where every application can saturate
//! the PFS alone.
//!
//! Since the scenario-aware policy registry, the whole experiment is one
//! declarative [`CampaignSpec`]: the §3.2.3 machinery (Congestion
//! insertion + `(1+ε)` period search) is the campaign's *policy* —
//! `periodic:cong:eps=0.02:tmax=1.5` — and the workload is the paper's
//! four applications replayed for [`REPLAY_PERIODS`] regular periods.
//! The campaign worker rebuilds the same schedule the analytic path
//! produces (the search is a deterministic function of the apps'
//! `(β, w, vol)` profiles, which the replay workload preserves) and
//! executes it in the fluid engine; [`run`] reports both views. The
//! identical sweep runs from JSON via `iosched campaign`
//! (`examples/campaign_fig4.json` is exactly
//! [`campaign`]`(REPLAY_PERIODS)`).

use crate::campaign::{run_campaign, CampaignSpec, CellSummary, PlatformSpec};
use crate::runner::ScenarioRunner;
use crate::{PeriodicFactory, PolicySpec};
use iosched_core::periodic::{
    InsertionHeuristic, PeriodicAppSpec, PeriodicSchedule, SteadyStateReport,
};
use iosched_model::{AppSpec, Bw, Bytes, Platform, Time};
use iosched_sim::replay_apps;
use iosched_workload::WorkloadSpec;

/// Regular periods the campaign replays through the engine. Enough for
/// the finite-horizon objectives to sit within a fraction of a percent
/// of steady state while the sweep stays instant.
pub const REPLAY_PERIODS: usize = 4;

/// The constructed schedule, its steady state, and the engine replay.
#[derive(Debug, Clone)]
pub struct Fig04Result {
    /// The best schedule found.
    pub schedule: PeriodicSchedule,
    /// Steady-state objectives (the figure's analytic view).
    pub report: SteadyStateReport,
    /// Instances per period, by application (paper: 3, 3, 1, 1).
    pub n_per: Vec<usize>,
    /// The same schedule executed in the fluid simulator over
    /// [`REPLAY_PERIODS`] periods, via the campaign.
    pub simulated: CellSummary,
}

/// The paper's four applications.
#[must_use]
pub fn paper_apps() -> Vec<PeriodicAppSpec> {
    vec![
        PeriodicAppSpec::new(0, 100, Time::secs(3.5), Bytes::new(240.0)),
        PeriodicAppSpec::new(1, 100, Time::secs(27.5), Bytes::new(288.0)),
        PeriodicAppSpec::new(2, 100, Time::secs(90.0), Bytes::new(350.0)),
        PeriodicAppSpec::new(3, 100, Time::secs(75.0), Bytes::new(524.0)),
    ]
}

/// The abstract-unit platform of the figure.
#[must_use]
pub fn paper_platform() -> Platform {
    Platform::new("fig4", 400, Bw::new(1.0), Bw::new(100.0))
}

/// The offline policy of the figure: Congestion insertion under the
/// Dilation search, staying near T₀ as the figure does (one period
/// holding a handful of instances), rather than letting the search
/// stretch toward Tmax.
#[must_use]
pub fn periodic_factory() -> PeriodicFactory {
    PeriodicFactory::new(InsertionHeuristic::Congestion)
        .with_epsilon(0.02)
        .with_max_factor(1.5)
}

/// The paper applications as one-instance [`AppSpec`]s (the shape the
/// registry's scenario-aware build consumes).
#[must_use]
pub fn paper_app_specs() -> Vec<AppSpec> {
    paper_apps()
        .iter()
        .map(|a| AppSpec::periodic(a.id.0, Time::ZERO, a.procs, a.work, a.vol, 1))
        .collect()
}

/// The best Dilation-oriented periodic schedule for the paper apps —
/// built through the registry factory, so it is *by construction* the
/// schedule the campaign's policy rebuilds on its worker.
#[must_use]
pub fn schedule() -> PeriodicSchedule {
    periodic_factory()
        .build_schedule(&paper_platform(), &paper_app_specs())
        .expect("the paper's four applications schedule cleanly")
}

/// The Fig. 4 experiment as data: the paper platform × the schedule's
/// replay workload × the `periodic:cong:eps=0.02:tmax=1.5` policy.
#[must_use]
pub fn campaign(periods: usize) -> CampaignSpec {
    campaign_for(&schedule(), periods)
}

/// [`campaign`] over an already-built schedule (so callers that need the
/// schedule anyway, like [`run`], search for it only once).
fn campaign_for(schedule: &PeriodicSchedule, periods: usize) -> CampaignSpec {
    CampaignSpec {
        name: "fig04".into(),
        platforms: vec![PlatformSpec::Custom(paper_platform())],
        workloads: vec![WorkloadSpec::Explicit(replay_apps(schedule, periods))],
        policies: vec![PolicySpec::Periodic(periodic_factory())],
        seeds: vec![],
        config: None,
        threads: None,
    }
}

/// Search for the schedule and execute it through the campaign runner.
#[must_use]
pub fn run() -> Fig04Result {
    let platform = paper_platform();
    let schedule = schedule();
    let report = schedule.steady_state(&platform);
    let n_per = paper_apps().iter().map(|a| schedule.n_per(a.id)).collect();
    let result = run_campaign(
        &campaign_for(&schedule, REPLAY_PERIODS),
        &ScenarioRunner::new(),
    )
    .expect("fig04 campaign is valid");
    let simulated = result
        .cells
        .into_iter()
        .next()
        .expect("one policy, one workload: one cell");
    Fig04Result {
        schedule,
        report,
        n_per,
        simulated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_sim::unroll_report;

    #[test]
    fn schedule_is_valid_and_shaped_like_the_figure() {
        let r = run();
        r.schedule.validate(&paper_platform()).unwrap();
        // Everyone is scheduled.
        assert!(r.n_per.iter().all(|&n| n >= 1), "n_per {:?}", r.n_per);
        // The short application packs more instances per period than the
        // long ones (the figure shows 3,3,1,1).
        assert!(r.n_per[0] >= r.n_per[2], "n_per {:?}", r.n_per);
        assert!(r.report.dilation.is_finite());
    }

    #[test]
    fn campaign_replay_matches_the_analytic_unrolling() {
        let r = run();
        assert_eq!(r.simulated.runs, 1);
        assert_eq!(r.simulated.policy, "periodic:cong:eps=0.02:tmax=1.5");
        let expected = unroll_report(&r.schedule, &paper_platform(), REPLAY_PERIODS);
        assert!(
            (r.simulated.sys_efficiency.mean - expected.sys_efficiency).abs() < 1e-6,
            "engine replay {} vs analytic unrolling {}",
            r.simulated.sys_efficiency.mean,
            expected.sys_efficiency
        );
        assert!((r.simulated.dilation.mean - expected.dilation).abs() < 1e-6);
        // …and the finite horizon sits close to the steady state.
        assert!((r.simulated.sys_efficiency.mean - r.report.sys_efficiency).abs() < 0.05);
    }

    #[test]
    fn campaign_shape_is_one_offline_cell() {
        let spec = campaign(REPLAY_PERIODS);
        spec.validate().unwrap();
        assert_eq!(spec.cell_count(), 1);
        assert_eq!(spec.total_runs(), 1);
        assert!(spec.policies[0].is_offline());
    }
}

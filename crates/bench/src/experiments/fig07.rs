//! **Fig. 7** — "Impact of the sensibility of the computations over
//! SysEfficiency and Dilation of all heuristics".
//!
//! §4.3: applications are made non-periodic by drawing each instance's
//! work from `U[w, w(1+x)]` for x = 0…30 %; the paper finds "this
//! parameter has almost no impact on the results" because the online
//! heuristics only use information available at each event.
//!
//! The sweep is one [`CampaignSpec`]: seven [`WorkloadSpec::Perturbed`]
//! templates (one per sensibility level, each wrapping the Fig. 6(b)
//! mix) × three heuristics × a seed axis, aggregated per cell by the
//! streaming [`run_campaign`].

use crate::campaign::{run_campaign, CampaignSpec, PlatformSpec};
use crate::runner::ScenarioRunner;
use crate::PolicySpec;
use iosched_core::heuristics::{BasePolicy, PolicyKind};
use iosched_workload::{MixConfig, WorkloadSpec};

/// Mean objectives at one sensibility level for one policy.
#[derive(Debug, Clone)]
pub struct Fig07Row {
    /// Sensibility percentage (0–30).
    pub sensibility_pct: u32,
    /// Policy name.
    pub policy: String,
    /// Mean SysEfficiency.
    pub sys_efficiency: f64,
    /// Mean Dilation.
    pub dilation: f64,
}

/// The paper's x-axis.
#[must_use]
pub fn sensibility_levels() -> Vec<u32> {
    vec![0, 5, 10, 15, 20, 25, 30]
}

/// The three heuristics of the figure (no Priority).
#[must_use]
pub fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::plain(BasePolicy::MinDilation),
        PolicyKind::plain(BasePolicy::MaxSysEff),
        PolicyKind::plain(BasePolicy::MinMax(0.5)),
    ]
}

/// The Fig. 7 sweep as data: one perturbed-mix template per sensibility
/// level (the campaign seed axis drives both the mix and, salted, the
/// perturbation stream — see [`iosched_workload::spec::PERTURB_SEED_SALT`]).
#[must_use]
pub fn campaign(runs: usize) -> CampaignSpec {
    CampaignSpec {
        name: "fig07".into(),
        platforms: vec![PlatformSpec::Preset("intrepid".into())],
        workloads: sensibility_levels()
            .iter()
            .map(|&pct| {
                let x = f64::from(pct) / 100.0;
                WorkloadSpec::Perturbed {
                    base: Box::new(WorkloadSpec::Mix {
                        config: MixConfig::fig6b(),
                        seed: 0,
                    }),
                    work_x: x,
                    vol_x: x,
                    seed: 0,
                }
            })
            .collect(),
        policies: policies().into_iter().map(PolicySpec::Kind).collect(),
        seeds: (0..runs as u64).collect(),
        config: None,
        threads: None,
    }
}

/// Run `runs` mixes per sensibility level per policy (streamed through
/// [`run_campaign`]; per-cell means are thread-count independent).
#[must_use]
pub fn run(runs: usize) -> Vec<Fig07Row> {
    let spec = campaign(runs);
    let result = run_campaign(&spec, &ScenarioRunner::new()).expect("fig07 campaign is valid");
    let levels = sensibility_levels();
    let per_level = spec.policies.len();
    result
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| Fig07Row {
            sensibility_pct: levels[i / per_level],
            policy: cell.policy.clone(),
            sys_efficiency: cell.sys_efficiency.mean,
            dilation: cell.dilation.mean,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensibility_has_almost_no_impact() {
        let rows = run(5);
        for kind in policies() {
            let name = kind.name();
            let series: Vec<&Fig07Row> = rows.iter().filter(|r| r.policy == name).collect();
            assert_eq!(series.len(), sensibility_levels().len());
            let base = series[0];
            for r in &series {
                assert!(
                    (r.sys_efficiency - base.sys_efficiency).abs() < 0.06,
                    "{name}: syseff at {}% drifted from {} to {}",
                    r.sensibility_pct,
                    base.sys_efficiency,
                    r.sys_efficiency
                );
            }
        }
    }

    #[test]
    fn campaign_templates_cover_every_level() {
        let spec = campaign(3);
        assert_eq!(spec.workloads.len(), 7);
        assert_eq!(spec.cell_count(), 21);
        spec.validate().unwrap();
        // Level 0 still wraps (a zero perturbation is the periodic mix).
        assert!(matches!(
            &spec.workloads[0],
            WorkloadSpec::Perturbed { work_x, .. } if *work_x == 0.0
        ));
    }
}

//! **Fig. 6** — "Objectives for different mixes of applications and I/O
//! computation ratios": SysEfficiency and Dilation of the eight policies
//! (RoundRobin / MinDilation / MaxSysEff / MinMax-0.5, each ± Priority)
//! over (a) 10 large @ 20 %, (b) 50 small + 5 large @ 20 %, and (c) 50
//! small + 5 large @ 35 %. "Simulations were run 200 times on different
//! application mixes and only the mean values are reported."
//!
//! The whole experiment is one declarative [`CampaignSpec`] — three mix
//! templates × the Fig. 6 policy roster × a seed axis — executed through
//! the streaming [`run_campaign`] aggregator. The identical sweep can be
//! run from a JSON file via `iosched campaign`
//! (`examples/campaign_fig6.json` is exactly `campaign(200)`).

use crate::campaign::{run_campaign, CampaignSpec, PlatformSpec};
use crate::runner::ScenarioRunner;
use crate::PolicySpec;
use iosched_core::heuristics::PolicyKind;
use iosched_workload::{MixConfig, WorkloadSpec};

/// Mean objectives of one policy on one mix.
#[derive(Debug, Clone)]
pub struct Fig06Row {
    /// Mix label ("a", "b", "c").
    pub mix: &'static str,
    /// Policy name.
    pub policy: String,
    /// Mean SysEfficiency (fraction).
    pub sys_efficiency: f64,
    /// Mean Dilation.
    pub dilation: f64,
    /// Mean congestion-free upper limit (fraction).
    pub upper_limit: f64,
}

/// The three Fig. 6 mixes.
#[must_use]
pub fn mixes() -> Vec<(&'static str, MixConfig)> {
    vec![
        ("a", MixConfig::fig6a()),
        ("b", MixConfig::fig6b()),
        ("c", MixConfig::fig6c()),
    ]
}

/// The Fig. 6 sweep as data: `intrepid × {mix a, b, c} × the eight
/// policies × runs seeds`.
#[must_use]
pub fn campaign(runs: usize) -> CampaignSpec {
    CampaignSpec {
        name: "fig06".into(),
        platforms: vec![PlatformSpec::Preset("intrepid".into())],
        workloads: mixes()
            .iter()
            .map(|&(_, config)| WorkloadSpec::Mix { config, seed: 0 })
            .collect(),
        policies: PolicyKind::fig6_roster()
            .into_iter()
            .map(PolicySpec::Kind)
            .collect(),
        seeds: (0..runs as u64).collect(),
        config: None,
        threads: None,
    }
}

/// Run `runs` random mixes per configuration per policy (streamed through
/// [`run_campaign`]; per-cell means are independent of the thread count).
#[must_use]
pub fn run(runs: usize) -> Vec<Fig06Row> {
    let spec = campaign(runs);
    let result = run_campaign(&spec, &ScenarioRunner::new()).expect("fig06 campaign is valid");
    let mixes = mixes();
    let per_mix = spec.policies.len();
    result
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| Fig06Row {
            mix: mixes[i / per_mix].0,
            policy: cell.policy.clone(),
            sys_efficiency: cell.sys_efficiency.mean,
            dilation: cell.dilation.mean,
            upper_limit: cell.upper_limit.mean,
        })
        .collect()
}

/// Look up a row by mix and policy name.
#[must_use]
pub fn find<'a>(rows: &'a [Fig06Row], mix: &str, policy: &str) -> Option<&'a Fig06Row> {
    rows.iter().find(|r| r.mix == mix && r.policy == policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shape_claims_hold_on_a_small_sample() {
        let rows = run(8);
        assert_eq!(rows.len(), 3 * 8);
        for mix in ["a", "b", "c"] {
            let md = find(&rows, mix, "mindilation").unwrap();
            let ms = find(&rows, mix, "maxsyseff").unwrap();
            // "MinDilation has better results than MaxSysEff for the
            // Dilation objective, but worse for SysEfficiency."
            assert!(
                md.dilation <= ms.dilation + 0.05,
                "mix {mix}: MinDilation dilation {} vs MaxSysEff {}",
                md.dilation,
                ms.dilation
            );
            assert!(
                ms.sys_efficiency >= md.sys_efficiency - 0.01,
                "mix {mix}: MaxSysEff syseff {} vs MinDilation {}",
                ms.sys_efficiency,
                md.sys_efficiency
            );
            // MinMax-0.5 sits between the two extremes on both axes
            // (within sampling noise).
            let mm = find(&rows, mix, "minmax-0.50").unwrap();
            assert!(mm.dilation <= ms.dilation + 0.25);
            assert!(mm.sys_efficiency >= md.sys_efficiency - 0.05);
        }
    }

    #[test]
    fn priority_variants_are_slightly_worse() {
        let rows = run(8);
        // "the Priority variants are, most of the time, less efficient
        // than the original versions" — check the aggregate over mixes.
        let mut plain_eff = 0.0;
        let mut prio_eff = 0.0;
        for mix in ["a", "b", "c"] {
            for base in ["mindilation", "maxsyseff", "minmax-0.50", "roundrobin"] {
                plain_eff += find(&rows, mix, base).unwrap().sys_efficiency;
                prio_eff += find(&rows, mix, &format!("priority-{base}"))
                    .unwrap()
                    .sys_efficiency;
            }
        }
        assert!(
            prio_eff <= plain_eff + 0.05,
            "priority aggregate {prio_eff} should not beat plain {plain_eff}"
        );
    }

    #[test]
    fn campaign_shape_is_fig6() {
        let spec = campaign(200);
        assert_eq!(spec.workloads.len(), 3);
        assert_eq!(spec.policies.len(), 8);
        assert_eq!(spec.seeds.len(), 200);
        assert_eq!(spec.total_runs(), 3 * 8 * 200);
        assert_eq!(spec.cell_count(), 24);
        spec.validate().unwrap();
    }
}

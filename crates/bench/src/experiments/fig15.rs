//! **Fig. 15** — "System efficiency and dilation for different scenarios
//! on Vesta": the real-thread IOR harness per scenario, comparing plain
//! IOR (uncoordinated), MaxSysEff and MinDilation, each with and without
//! burst buffers.

use iosched_core::baselines::FairShare;
use iosched_core::heuristics::{MaxSysEff, MinDilation, Priority};
use iosched_core::policy::OnlinePolicy;
use iosched_ior::{run_ior, IorConfig};
use iosched_model::{Interference, Platform};
use iosched_workload::ior_profile::{scenario_apps, vesta_scenarios, IorParams, VestaScenario};

/// One (scenario, variant) observation.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Scenario label.
    pub scenario: String,
    /// Variant name ("ior", "maxsyseff", "mindilation", "bb-ior", …).
    pub variant: String,
    /// SysEfficiency (fraction).
    pub sys_efficiency: f64,
    /// Dilation.
    pub dilation: f64,
}

/// Vesta with the disk interference the experiments observe.
#[must_use]
pub fn vesta_platform() -> Platform {
    Platform::vesta()
        .with_interference(Interference::default_penalty())
        .with_default_burst_buffer()
}

fn variants() -> Vec<(String, Box<dyn OnlinePolicy>, bool)> {
    // §5.1: Vesta uses hard disks, so the Priority variants run.
    vec![
        (
            "ior".into(),
            Box::new(FairShare) as Box<dyn OnlinePolicy>,
            false,
        ),
        (
            "maxsyseff".into(),
            Box::new(Priority::new(MaxSysEff)),
            false,
        ),
        (
            "mindilation".into(),
            Box::new(Priority::new(MinDilation)),
            false,
        ),
        ("bb-ior".into(), Box::new(FairShare), true),
        (
            "bb-maxsyseff".into(),
            Box::new(Priority::new(MaxSysEff)),
            true,
        ),
        (
            "bb-mindilation".into(),
            Box::new(Priority::new(MinDilation)),
            true,
        ),
    ]
}

/// Run one scenario through all six variants.
#[must_use]
pub fn run_scenario(scenario: &VestaScenario, speedup: f64, seed: u64) -> Vec<Fig15Row> {
    let platform = vesta_platform();
    let apps = scenario_apps(scenario, &platform, IorParams::default(), seed);
    variants()
        .into_iter()
        .map(|(name, mut policy, use_bb)| {
            let mut cfg = IorConfig::new(platform.clone(), apps.clone());
            cfg.speedup = speedup;
            cfg.use_burst_buffer = use_bb;
            let out = run_ior(&cfg, policy.as_mut()).expect("valid scenario");
            Fig15Row {
                scenario: scenario.name.clone(),
                variant: name,
                sys_efficiency: out.report.sys_efficiency,
                dilation: out.report.dilation,
            }
        })
        .collect()
}

/// Run all eleven scenarios.
#[must_use]
pub fn run(speedup: f64) -> Vec<Fig15Row> {
    vesta_scenarios()
        .iter()
        .flat_map(|s| run_scenario(s, speedup, 42))
        .collect()
}

/// Find a row.
#[must_use]
pub fn find<'a>(rows: &'a [Fig15Row], scenario: &str, variant: &str) -> Option<&'a Fig15Row> {
    rows.iter()
        .find(|r| r.scenario == scenario && r.variant == variant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congested_scenario_favors_the_heuristics() {
        // The 4×512 scenario is the most congested of Fig. 15.
        let scenario = VestaScenario::new(&[512, 512, 512, 512]);
        let rows = run_scenario(&scenario, 4_000.0, 7);
        assert_eq!(rows.len(), 6);
        let ior = find(&rows, &scenario.name, "ior").unwrap();
        let ours = find(&rows, &scenario.name, "maxsyseff").unwrap();
        // "our heuristics perform very well, better than Vesta's I/O
        // scheduler when congestion occurs" (generous tolerance — this is
        // a real-thread run).
        assert!(
            ours.sys_efficiency >= ior.sys_efficiency - 0.05,
            "maxsyseff {:.3} vs ior {:.3}",
            ours.sys_efficiency,
            ior.sys_efficiency
        );
        for r in &rows {
            assert!(r.dilation >= 1.0);
            assert!(r.sys_efficiency > 0.0 && r.sys_efficiency <= 1.0);
        }
    }
}

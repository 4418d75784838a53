//! **Fig. 16** — "Dilation values for the applications from the
//! 512/256/256/32 scenario", under (a) MaxSysEff and (b) MinDilation.
//!
//! Paper: with MaxSysEff "the small applications are in general more
//! impacted by congestion than the big ones […] the big applications see
//! a decrease in their dilation"; with MinDilation "an almost uniform
//! decrease in all application dilations".

use iosched_core::baselines::FairShare;
use iosched_core::heuristics::{MaxSysEff, MinDilation, Priority};
use iosched_core::policy::OnlinePolicy;
use iosched_ior::{run_ior, IorConfig};
use iosched_workload::ior_profile::{fig16_scenario, scenario_apps, IorParams};

use super::fig15::vesta_platform;

/// Per-application dilation under one policy.
#[derive(Debug, Clone)]
pub struct Fig16Row {
    /// Policy name ("ior" is the congested baseline).
    pub policy: String,
    /// One dilation per application, in scenario order (512/256/256/32).
    pub dilations: Vec<f64>,
}

/// Run the 512/256/256/32 scenario under the three §5.2 variants.
#[must_use]
pub fn run(speedup: f64, seed: u64) -> Vec<Fig16Row> {
    let platform = vesta_platform();
    let scenario = fig16_scenario();
    let apps = scenario_apps(&scenario, &platform, IorParams::default(), seed);
    let variants: Vec<(&str, Box<dyn OnlinePolicy>)> = vec![
        ("ior", Box::new(FairShare)),
        ("maxsyseff", Box::new(Priority::new(MaxSysEff))),
        ("mindilation", Box::new(Priority::new(MinDilation))),
    ];
    variants
        .into_iter()
        .map(|(name, mut policy)| {
            let mut cfg = IorConfig::new(platform.clone(), apps.clone());
            cfg.speedup = speedup;
            let out = run_ior(&cfg, policy.as_mut()).expect("valid scenario");
            let dilations = out
                .report
                .per_app
                .iter()
                .map(iosched_model::AppOutcome::dilation)
                .collect();
            Fig16Row {
                policy: name.into(),
                dilations,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mindilation_is_more_uniform_than_maxsyseff() {
        let rows = run(2_000.0, 3);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.policy == name)
                .unwrap()
                .dilations
                .clone()
        };
        let spread = |d: &[f64]| {
            let max = d.iter().fold(f64::MIN, |a, &b| a.max(b));
            let min = d.iter().fold(f64::MAX, |a, &b| a.min(b));
            max - min
        };
        let ms = get("maxsyseff");
        let md = get("mindilation");
        assert_eq!(ms.len(), 4);
        assert_eq!(md.len(), 4);
        // MinDilation equalizes: its spread should not exceed MaxSysEff's
        // by much (real threads → generous tolerance).
        assert!(
            spread(&md) <= spread(&ms) + 0.5,
            "mindilation spread {:.2} vs maxsyseff {:.2}",
            spread(&md),
            spread(&ms)
        );
        // MinDilation's worst application beats MaxSysEff's worst.
        let worst = |d: &[f64]| d.iter().fold(f64::MIN, |a, &b| a.max(b));
        assert!(worst(&md) <= worst(&ms) + 0.3);
    }
}

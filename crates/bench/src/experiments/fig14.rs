//! **Fig. 14** — "Execution time overhead of our implementation of the
//! IOR benchmark": the cost of routing every I/O through the scheduler
//! thread when no scheduling decision is ever withheld, per Vesta
//! scenario, with and without burst buffers.
//!
//! Paper: "the overhead in execution time varies between 1 % to 5.3 %.
//! In general, for a larger number of applications, the execution time
//! overhead remains under 3 %."

use iosched_ior::{measure_overhead, IorConfig};
use iosched_model::Platform;
use iosched_workload::ior_profile::{scenario_apps, vesta_scenarios, IorParams};

/// Overhead of one scenario.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Scenario label ("512/256/32", …).
    pub scenario: String,
    /// Number of applications in the scenario.
    pub apps: usize,
    /// Relative execution-time overhead without burst buffers.
    pub overhead_no_bb: f64,
    /// Relative execution-time overhead with burst buffers.
    pub overhead_bb: f64,
}

/// Measure every Fig. 14 scenario. `speedup` trades fidelity for wall
/// time (lower = more faithful, slower).
#[must_use]
pub fn run(speedup: f64) -> Vec<Fig14Row> {
    let plain = Platform::vesta();
    let bb = Platform::vesta().with_default_burst_buffer();
    vesta_scenarios()
        .iter()
        .map(|scenario| {
            let apps = scenario_apps(scenario, &plain, IorParams::default(), 42);
            let mut cfg = IorConfig::new(plain.clone(), apps.clone());
            cfg.speedup = speedup;
            let no_bb = measure_overhead(&cfg).expect("valid scenario");
            let mut cfg_bb = IorConfig::new(bb.clone(), apps);
            cfg_bb.speedup = speedup;
            cfg_bb.use_burst_buffer = true;
            let with_bb = measure_overhead(&cfg_bb).expect("valid scenario");
            Fig14Row {
                scenario: scenario.name.clone(),
                apps: scenario.app_count(),
                overhead_no_bb: no_bb.overhead_frac,
                overhead_bb: with_bb.overhead_frac,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_small_for_every_scenario() {
        // Coarse scale to keep the test quick; `iosched repro fig14` uses a
        // finer one.
        let rows = run(2_000.0);
        assert_eq!(rows.len(), 11);
        for r in &rows {
            assert!(r.overhead_no_bb >= 0.0 && r.overhead_bb >= 0.0);
            assert!(
                r.overhead_no_bb < 0.5,
                "{}: overhead {:.1}% implausible",
                r.scenario,
                r.overhead_no_bb * 100.0
            );
        }
    }
}

//! `RAYON_NUM_THREADS` handling of the `ScenarioRunner`.
//!
//! This lives in its own test binary on purpose: `std::env::set_var` is
//! process-global and racy against concurrent `getenv` callers, so the
//! env mutation must not share a process with concurrently running
//! tests.
//! With a single `#[test]` here, nothing else runs while the
//! environment changes.

use iosched_bench::campaign::{fold_outcomes, CampaignSpec, PlatformSpec};
use iosched_bench::runner::ScenarioRunner;
use iosched_bench::PolicySpec;
use iosched_sim::SimOutcome;
use iosched_workload::WorkloadSpec;

/// Every run's outcome in run-index order.
fn runs(spec: &CampaignSpec, runner: &ScenarioRunner) -> Vec<SimOutcome> {
    let mut runs = vec![None; spec.total_runs()];
    fold_outcomes(spec, runner, (), |(), idx, outcome| {
        runs[idx] = Some(outcome.clone());
    })
    .expect("congested moments run");
    runs.into_iter().map(Option::unwrap).collect()
}

#[test]
fn rayon_num_threads_env_is_honored_and_result_invariant() {
    let spec = CampaignSpec {
        name: "env".into(),
        platforms: vec![PlatformSpec::Preset("vesta".into())],
        workloads: vec![WorkloadSpec::Congestion { seed: 0 }],
        policies: vec![
            PolicySpec::parse("maxsyseff").unwrap(),
            PolicySpec::parse("mindilation").unwrap(),
        ],
        seeds: (0..6).collect(),
        config: None,
        threads: None,
    };

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single_runner = ScenarioRunner::new();
    assert_eq!(single_runner.threads(), 1, "env override must win");
    let single = runs(&spec, &single_runner);
    std::env::remove_var("RAYON_NUM_THREADS");

    let default_runner = ScenarioRunner::new();
    assert!(default_runner.threads() >= 1);
    let default = runs(&spec, &default_runner);

    for (s, d) in single.iter().zip(&default) {
        assert_eq!(s.events, d.events);
        assert_eq!(
            s.report.sys_efficiency.to_bits(),
            d.report.sys_efficiency.to_bits(),
            "thread count changed a result"
        );
        assert_eq!(s.report.dilation.to_bits(), d.report.dilation.to_bits());
    }
}

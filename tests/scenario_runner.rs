//! Integration coverage for the `ScenarioRunner` batch layer: the
//! parallel executor must be a pure, deterministic fan-out of the
//! sequential engine — bit-identical outcomes, input-ordered, invariant
//! under the worker-thread count.

use iosched_bench::campaign::{run_campaign, CampaignSpec, PlatformSpec};
use iosched_bench::runner::ScenarioRunner;
use iosched_bench::scenario::{PolicySpec, Scenario};
use iosched_core::baselines::native_platform;
use iosched_model::stats::Summary;
use iosched_model::Platform;
use iosched_sim::{simulate, SimConfig, SimOutcome};
use iosched_workload::congestion::congested_moment;
use iosched_workload::{MixConfig, WorkloadSpec};

/// A mixed 20-scenario batch: two platforms, five policies, congested
/// moments and Fig. 6 mixes, with and without burst buffers.
fn mixed_batch() -> Vec<Scenario> {
    let vesta = Platform::vesta();
    let intrepid = Platform::intrepid();
    let native_vesta = native_platform(vesta.clone());
    let mut scenarios = Vec::new();
    for seed in 0..5u64 {
        let apps = congested_moment(&vesta, seed);
        for policy in ["maxsyseff", "mindilation"] {
            scenarios.push(Scenario::new(
                format!("congested/{policy}/{seed}"),
                vesta.clone(),
                apps.clone(),
                PolicySpec::parse(policy).unwrap(),
            ));
        }
    }
    for seed in 0..3u64 {
        let apps = MixConfig::fig6a().generate(&intrepid, seed);
        for policy in ["roundrobin", "priority-maxsyseff"] {
            scenarios.push(Scenario::new(
                format!("mix-a/{policy}/{seed}"),
                intrepid.clone(),
                apps.clone(),
                PolicySpec::parse(policy).unwrap(),
            ));
        }
    }
    for seed in 0..3u64 {
        scenarios.push(
            Scenario::new(
                format!("native/fairshare/{seed}"),
                native_vesta.clone(),
                congested_moment(&native_vesta, seed),
                PolicySpec::parse("fairshare").unwrap(),
            )
            .with_config(SimConfig::with_burst_buffer()),
        );
    }
    scenarios.push(Scenario::new(
        "congested/fcfs/9",
        vesta.clone(),
        congested_moment(&vesta, 9),
        PolicySpec::parse("fcfs").unwrap(),
    ));
    assert_eq!(scenarios.len(), 20);
    scenarios
}

/// Bit-level equality of two outcomes (floats compared through their
/// bit patterns: not approximately equal — *identical*).
fn assert_bit_identical(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.events, b.events, "{label}: event counts differ");
    assert_eq!(
        a.end_time.get().to_bits(),
        b.end_time.get().to_bits(),
        "{label}: end times differ"
    );
    assert_eq!(
        a.report.sys_efficiency.to_bits(),
        b.report.sys_efficiency.to_bits(),
        "{label}: SysEfficiency differs"
    );
    assert_eq!(
        a.report.dilation.to_bits(),
        b.report.dilation.to_bits(),
        "{label}: Dilation differs"
    );
    assert_eq!(
        a.report.upper_limit.to_bits(),
        b.report.upper_limit.to_bits(),
        "{label}: upper limit differs"
    );
    assert_eq!(a.report.per_app.len(), b.report.per_app.len());
    for (x, y) in a.report.per_app.iter().zip(&b.report.per_app) {
        assert_eq!(x.id, y.id, "{label}: app order differs");
        assert_eq!(x.finish.get().to_bits(), y.finish.get().to_bits());
        assert_eq!(x.rho.to_bits(), y.rho.to_bits());
        assert_eq!(x.rho_tilde.to_bits(), y.rho_tilde.to_bits());
    }
    assert_eq!(a.per_app_bytes.len(), b.per_app_bytes.len());
    for ((ia, ba), (ib, bb)) in a.per_app_bytes.iter().zip(&b.per_app_bytes) {
        assert_eq!(ia, ib);
        assert_eq!(
            ba.get().to_bits(),
            bb.get().to_bits(),
            "{label}: bytes differ"
        );
    }
}

#[test]
fn parallel_runner_matches_direct_sequential_simulate() {
    let scenarios = mixed_batch();
    let parallel = ScenarioRunner::with_threads(4).run_all(&scenarios);
    assert_eq!(parallel.len(), scenarios.len());
    for (scenario, result) in scenarios.iter().zip(&parallel) {
        // The reference: a direct, sequential engine invocation.
        let mut policy = scenario
            .policy
            .build(&scenario.platform, &scenario.apps)
            .expect("batch policies build");
        let direct = simulate(
            &scenario.platform,
            &scenario.apps,
            policy.as_mut(),
            &scenario.config,
        )
        .expect("batch scenarios are valid");
        let batched = result.as_ref().expect("batch scenarios are valid");
        assert_bit_identical(batched, &direct, &scenario.label);
    }
}

#[test]
fn results_are_invariant_under_thread_count() {
    let scenarios = mixed_batch();
    let wide = ScenarioRunner::with_threads(8).run_all(&scenarios);
    let narrow = ScenarioRunner::with_threads(1).run_all(&scenarios);
    for ((scenario, w), n) in scenarios.iter().zip(&wide).zip(&narrow) {
        assert_bit_identical(w.as_ref().unwrap(), n.as_ref().unwrap(), &scenario.label);
    }
}

/// A small but heterogeneous campaign: two platforms, two workload
/// families, three policies, four seeds → 24 cells-worth of runs.
fn mixed_campaign() -> CampaignSpec {
    CampaignSpec {
        name: "itest".into(),
        platforms: vec![
            PlatformSpec::Preset("vesta".into()),
            PlatformSpec::Native("intrepid".into()),
        ],
        workloads: vec![
            WorkloadSpec::Congestion { seed: 0 },
            WorkloadSpec::Mix {
                config: MixConfig::fig6a(),
                seed: 0,
            },
        ],
        policies: vec![
            PolicySpec::parse("maxsyseff").unwrap(),
            PolicySpec::parse("priority-minmax-0.25").unwrap(),
            PolicySpec::parse("fairshare").unwrap(),
        ],
        seeds: vec![3, 5, 8, 13],
        config: None,
        threads: None,
    }
}

/// Campaign determinism: expanding a `CampaignSpec` and streaming it
/// through the parallel `run_fold` is bit-identical to building every
/// scenario sequentially, calling `Scenario::run` by hand and folding
/// manually — and invariant under the worker-thread count.
#[test]
fn campaign_run_fold_matches_sequential_manual_fold() {
    let spec = mixed_campaign();
    let rpc = spec.runs_per_cell();

    // Reference: strictly sequential expansion + per-cell manual fold.
    let mut manual_cells: Vec<Vec<SimOutcome>> = Vec::new();
    let mut current: Vec<SimOutcome> = Vec::new();
    for (idx, scenario) in spec.scenarios().enumerate() {
        let outcome = scenario
            .expect("campaign scenarios build")
            .run()
            .expect("campaign scenarios simulate");
        current.push(outcome);
        if (idx + 1) % rpc == 0 {
            manual_cells.push(std::mem::take(&mut current));
        }
    }
    assert_eq!(manual_cells.len(), spec.cell_count());

    // run_fold over the lazily expanded scenarios, folding outcomes per
    // cell, on several thread counts.
    for threads in [1, 4, 7] {
        let folded: Vec<Vec<SimOutcome>> = {
            let mut cells = Vec::new();
            let mut buf = Vec::new();
            ScenarioRunner::with_threads(threads).run_fold(
                spec.scenarios()
                    .map(|s| s.expect("campaign scenarios build")),
                (),
                |(), idx, result| {
                    buf.push(result.expect("campaign scenarios simulate"));
                    if (idx + 1) % rpc == 0 {
                        cells.push(std::mem::take(&mut buf));
                    }
                },
            );
            cells
        };
        assert_eq!(folded.len(), manual_cells.len());
        for (c, (fold_cell, manual_cell)) in folded.iter().zip(&manual_cells).enumerate() {
            for (f, m) in fold_cell.iter().zip(manual_cell) {
                assert_bit_identical(f, m, &format!("threads={threads} cell={c}"));
            }
        }
    }

    // And the per-cell Summary aggregates of run_campaign are exactly the
    // summaries of the manual per-cell samples.
    let result = run_campaign(&spec, &ScenarioRunner::with_threads(5)).unwrap();
    for (cell, manual) in result.cells.iter().zip(&manual_cells) {
        let effs: Vec<f64> = manual.iter().map(|o| o.report.sys_efficiency).collect();
        let reference = Summary::from_slice(&effs).unwrap();
        assert_eq!(cell.runs, rpc);
        assert_eq!(cell.sys_efficiency.mean.to_bits(), reference.mean.to_bits());
        assert_eq!(cell.sys_efficiency.std.to_bits(), reference.std.to_bits());
        assert_eq!(
            cell.sys_efficiency.median.to_bits(),
            reference.median.to_bits()
        );
    }
}

//! Integration coverage for the campaign layer's parallel execution:
//! the seed blocks fanned out by `run_campaign`/`fold_outcomes` must be
//! a pure, deterministic fan-out of the sequential engine — bit-identical
//! outcomes at every run index, invariant under the worker-thread count.

use iosched_bench::campaign::{fold_outcomes, run_campaign, CampaignSpec, PlatformSpec};
use iosched_bench::runner::ScenarioRunner;
use iosched_bench::PolicySpec;
use iosched_model::stats::Summary;
use iosched_sim::{simulate, SimConfig, SimOutcome};
use iosched_workload::{MixConfig, WorkloadSpec};

fn policies(names: &[&str]) -> Vec<PolicySpec> {
    names
        .iter()
        .map(|n| PolicySpec::parse(n).unwrap())
        .collect()
}

/// A mixed 20-run batch as four campaigns: two platforms, five policies,
/// congested moments and Fig. 6 mixes, with and without burst buffers.
fn mixed_batch() -> Vec<CampaignSpec> {
    let campaign =
        |name: &str, platform: PlatformSpec, workload, names: &[&str], seeds| CampaignSpec {
            name: name.into(),
            platforms: vec![platform],
            workloads: vec![workload],
            policies: policies(names),
            seeds,
            config: None,
            threads: None,
        };
    let vesta = || PlatformSpec::Preset("vesta".into());
    let batch = vec![
        campaign(
            "congested",
            vesta(),
            WorkloadSpec::Congestion { seed: 0 },
            &["maxsyseff", "mindilation"],
            (0..5).collect(),
        ),
        campaign(
            "mix-a",
            PlatformSpec::Preset("intrepid".into()),
            WorkloadSpec::Mix {
                config: MixConfig::fig6a(),
                seed: 0,
            },
            &["roundrobin", "priority-maxsyseff"],
            (0..3).collect(),
        ),
        CampaignSpec {
            config: Some(SimConfig::with_burst_buffer()),
            ..campaign(
                "native",
                PlatformSpec::Native("vesta".into()),
                WorkloadSpec::Congestion { seed: 0 },
                &["fairshare"],
                (0..3).collect(),
            )
        },
        campaign(
            "congested",
            vesta(),
            WorkloadSpec::Congestion { seed: 0 },
            &["fcfs"],
            vec![9],
        ),
    ];
    assert_eq!(
        batch.iter().map(CampaignSpec::total_runs).sum::<usize>(),
        20
    );
    batch
}

/// Every run of `spec` on `threads` workers, in run-index order.
fn fold_all(spec: &CampaignSpec, threads: usize) -> Vec<SimOutcome> {
    let runner = ScenarioRunner::with_threads(threads);
    let mut runs: Vec<Option<SimOutcome>> = vec![None; spec.total_runs()];
    fold_outcomes(spec, &runner, (), |(), idx, outcome| {
        assert!(runs[idx].is_none(), "run {idx} folded twice");
        runs[idx] = Some(outcome.clone());
    })
    .expect("batch campaigns run");
    runs.into_iter()
        .map(|r| r.expect("every run folded"))
        .collect()
}

/// Run `idx` of `spec` through a direct, sequential engine invocation:
/// materialize its scenario spec, build its policy, call `simulate`.
fn direct(spec: &CampaignSpec, idx: usize) -> SimOutcome {
    let scenario = spec.scenario_spec(idx);
    let platform = scenario.platform.build().expect("batch platforms resolve");
    let apps = scenario
        .workload
        .materialize(&platform)
        .expect("batch workloads materialize");
    let mut policy = scenario
        .policy
        .build(&platform, &apps)
        .expect("batch policies build");
    simulate(
        &platform,
        &apps,
        policy.as_mut(),
        &scenario.config.unwrap_or_default(),
    )
    .expect("batch scenarios are valid")
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
    for spec in mixed_batch() {
        let parallel = fold_all(&spec, 4);
        assert_eq!(parallel.len(), spec.total_runs());
        for (idx, batched) in parallel.iter().enumerate() {
            let label = spec.scenario_spec(idx).label;
            assert_bit_identical(batched, &direct(&spec, idx), &label);
        }
    }
}

#[test]
fn results_are_invariant_under_thread_count() {
    for spec in mixed_batch() {
        let narrow = fold_all(&spec, 1);
        for threads in [4, 8] {
            for (idx, (w, n)) in fold_all(&spec, threads).iter().zip(&narrow).enumerate() {
                let label = format!("threads={threads} {}", spec.scenario_spec(idx).label);
                assert_bit_identical(w, n, &label);
            }
        }
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

/// Campaign determinism: streaming a `CampaignSpec`'s seed blocks
/// through the parallel runner is bit-identical to running every
/// scenario spec sequentially by hand and folding manually — and
/// invariant under the worker-thread count.
#[test]
fn campaign_run_fold_matches_sequential_manual_fold() {
    let spec = mixed_campaign();
    let rpc = spec.runs_per_cell();

    // Reference: strictly sequential expansion + per-cell manual fold.
    let manual: Vec<SimOutcome> = (0..spec.total_runs())
        .map(|idx| direct(&spec, idx))
        .collect();
    let manual_cells: Vec<&[SimOutcome]> = manual.chunks(rpc).collect();
    assert_eq!(manual_cells.len(), spec.cell_count());

    // The seed blocks streamed back on several thread counts.
    for threads in [1, 4, 7] {
        let folded = fold_all(&spec, threads);
        for (idx, (f, m)) in folded.iter().zip(&manual).enumerate() {
            assert_bit_identical(f, m, &format!("threads={threads} run={idx}"));
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

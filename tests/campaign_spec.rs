//! The campaign layer's contract with the checked-in example specs:
//! `examples/campaign_fig6.json` *is* the ported Fig. 6 experiment and
//! `examples/campaign_fig4.json` *is* the ported Fig. 4 periodic
//! experiment; running them through the generic campaign runner produces
//! bit-identical numbers to the experiment modules — and, for the
//! offline `periodic:*` policies, to the pre-registry hand-rolled
//! pipeline (explicit `PeriodSearch` + `TimetablePolicy` + `simulate`) —
//! on the same code path `iosched campaign` drives.

use hpc_io_sched::core::periodic::{
    InsertionHeuristic, PeriodSearch, PeriodicAppSpec, PeriodicObjective, TimetablePolicy,
};
use hpc_io_sched::model::Platform;
use hpc_io_sched::sim::{replay_apps, simulate, SimConfig};
use hpc_io_sched::workload::congestion::congested_moment;
use iosched_bench::campaign::{run_campaign, CampaignSpec};
use iosched_bench::experiments::{ablations, control, fig04, fig06, load_sweep};
use iosched_bench::runner::ScenarioRunner;

fn example_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_fig6.json");
    std::fs::read_to_string(path).expect("examples/campaign_fig6.json is checked in")
}

fn fig4_example_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_fig4.json");
    std::fs::read_to_string(path).expect("examples/campaign_fig4.json is checked in")
}

#[test]
fn example_file_is_exactly_the_fig6_campaign() {
    let parsed = CampaignSpec::from_json(&example_json()).expect("example parses");
    let reference = fig06::campaign(200);
    assert_eq!(
        parsed, reference,
        "examples/campaign_fig6.json drifted; \
        regenerate with `cargo run --release --example export_campaigns`"
    );
    // The paper's Fig. 6 shape: 3 mixes x 8 policies x 200 seeds.
    assert_eq!(parsed.workloads.len(), 3);
    assert_eq!(parsed.policies.len(), 8);
    assert_eq!(parsed.seeds.len(), 200);
    assert_eq!(parsed.total_runs(), 4800);
}

#[test]
fn campaign_file_and_fig06_port_agree_bit_for_bit() {
    // Truncate the seed axis so the test stays fast; the expansion logic
    // and aggregation path are identical to the full 200-seed run.
    let runs = 6;
    let spec = CampaignSpec {
        seeds: (0..runs as u64).collect(),
        ..CampaignSpec::from_json(&example_json()).expect("example parses")
    };
    let from_file = run_campaign(&spec, &ScenarioRunner::new()).expect("campaign runs");
    let from_port = fig06::run(runs);
    assert_eq!(from_file.cells.len(), from_port.len());
    for (cell, row) in from_file.cells.iter().zip(&from_port) {
        assert_eq!(cell.policy, row.policy);
        assert_eq!(
            cell.sys_efficiency.mean.to_bits(),
            row.sys_efficiency.to_bits(),
            "SysEfficiency diverged for {}/{}",
            cell.workload,
            cell.policy
        );
        assert_eq!(
            cell.dilation.mean.to_bits(),
            row.dilation.to_bits(),
            "Dilation diverged for {}/{}",
            cell.workload,
            cell.policy
        );
        assert_eq!(
            cell.upper_limit.mean.to_bits(),
            row.upper_limit.to_bits(),
            "upper limit diverged for {}/{}",
            cell.workload,
            cell.policy
        );
    }
}

#[test]
fn fig4_example_file_is_exactly_the_fig04_campaign() {
    let parsed = CampaignSpec::from_json(&fig4_example_json()).expect("example parses");
    let reference = fig04::campaign(fig04::REPLAY_PERIODS);
    assert_eq!(
        parsed, reference,
        "examples/campaign_fig4.json drifted; \
        regenerate with `cargo run --release --example export_campaigns`"
    );
    // One offline policy over the paper's four applications.
    assert_eq!(parsed.policies.len(), 1);
    assert!(parsed.policies[0].is_offline());
    assert_eq!(parsed.policies[0].name(), "periodic:cong:eps=0.02:tmax=1.5");
    assert_eq!(parsed.total_runs(), 1);
}

/// The registry refactor must not move a single bit: the ported Fig. 4
/// campaign (the path `iosched campaign examples/campaign_fig4.json`
/// runs) reproduces the pre-refactor hand-rolled periodic pipeline —
/// explicit `(1+ε)` period search, explicit `TimetablePolicy`, explicit
/// `simulate` — exactly.
#[test]
fn fig04_campaign_matches_the_hand_rolled_pipeline_bit_for_bit() {
    // Hand-rolled (pre-registry) pipeline.
    let platform = fig04::paper_platform();
    let search = PeriodSearch::new(PeriodicObjective::Dilation)
        .with_epsilon(0.02)
        .with_max_factor(1.5);
    let result = search
        .run(
            &platform,
            &fig04::paper_apps(),
            InsertionHeuristic::Congestion,
        )
        .expect("non-empty application set");
    result.schedule.validate(&platform).unwrap();
    let apps = replay_apps(&result.schedule, fig04::REPLAY_PERIODS);
    let mut policy = TimetablePolicy::new(result.schedule.clone());
    let direct = simulate(&platform, &apps, &mut policy, &SimConfig::default()).unwrap();

    // Campaign path, from the checked-in file.
    let spec = CampaignSpec::from_json(&fig4_example_json()).expect("example parses");
    let campaign = run_campaign(&spec, &ScenarioRunner::new()).expect("campaign runs");
    assert_eq!(campaign.cells.len(), 1);
    let cell = &campaign.cells[0];
    assert_eq!(cell.runs, 1);
    assert_eq!(
        cell.sys_efficiency.mean.to_bits(),
        direct.report.sys_efficiency.to_bits(),
        "SysEfficiency diverged: campaign {} vs hand-rolled {}",
        cell.sys_efficiency.mean,
        direct.report.sys_efficiency
    );
    assert_eq!(
        cell.dilation.mean.to_bits(),
        direct.report.dilation.to_bits(),
        "Dilation diverged: campaign {} vs hand-rolled {}",
        cell.dilation.mean,
        direct.report.dilation
    );
    assert_eq!(
        cell.makespan_secs.mean.to_bits(),
        direct.report.makespan().as_secs().to_bits()
    );
    assert_eq!(
        cell.upper_limit.mean.to_bits(),
        direct.report.upper_limit.to_bits()
    );
}

/// Same pin for the ported ε ablation: each `periodic:cong:eps=<ε>` cell
/// equals the hand-rolled search + timetable replay on the same
/// congested moment.
#[test]
fn epsilon_ablation_campaign_matches_the_hand_rolled_sweep_bit_for_bit() {
    let epsilons = [0.5, 0.1];
    let spec = ablations::epsilon_campaign(&epsilons);
    let campaign = run_campaign(&spec, &ScenarioRunner::new()).expect("campaign runs");
    assert_eq!(campaign.cells.len(), epsilons.len());

    let platform = Platform::intrepid();
    let apps = congested_moment(&platform, ablations::EPSILON_CASE_SEED);
    let periodic_specs: Vec<PeriodicAppSpec> = apps
        .iter()
        .map(|a| PeriodicAppSpec::from_app(a).expect("generator emits periodic apps"))
        .collect();
    for (cell, &epsilon) in campaign.cells.iter().zip(&epsilons) {
        let result = PeriodSearch::new(PeriodicObjective::Dilation)
            .with_epsilon(epsilon)
            .run(&platform, &periodic_specs, InsertionHeuristic::Congestion)
            .expect("non-empty application set");
        let mut policy = TimetablePolicy::new(result.schedule);
        let direct = simulate(&platform, &apps, &mut policy, &SimConfig::default()).unwrap();
        assert_eq!(
            cell.dilation.mean.to_bits(),
            direct.report.dilation.to_bits(),
            "eps {epsilon}: campaign dilation {} vs hand-rolled {}",
            cell.dilation.mean,
            direct.report.dilation
        );
        assert_eq!(
            cell.sys_efficiency.mean.to_bits(),
            direct.report.sys_efficiency.to_bits(),
            "eps {epsilon}: campaign SysEfficiency diverged"
        );
    }
}

#[test]
fn control_example_file_is_exactly_the_storm_campaign() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/campaign_control.json"
    );
    let text = std::fs::read_to_string(path).expect("examples/campaign_control.json is checked in");
    let parsed = CampaignSpec::from_json(&text).expect("example parses");
    let reference = control::campaign(control::STORM_SEEDS);
    assert_eq!(
        parsed, reference,
        "examples/campaign_control.json drifted; \
        regenerate with `cargo run --release --example export_campaigns`"
    );
    // The storm shape: the closed-loop pair vs the three open-loop
    // references, telemetry on, spikes in the shared engine config.
    assert_eq!(parsed.policies.len(), 5);
    assert!(parsed.policies.iter().any(|p| p.name() == "control:pi"));
    assert!(parsed.policies.iter().any(|p| p.name() == "fairshare"));
    assert!(parsed.policies.iter().any(|p| p.name() == "periodic:cong"));
    let config = parsed.config.as_ref().expect("shared engine config");
    assert!(config.telemetry);
    assert_eq!(config.external_load, Some(control::spike_load()));
    assert!(
        parsed.seeds.len() >= 3,
        "the acceptance bar needs >= 3 seeds"
    );
}

/// The telemetry tap observes, it never steers: with the summary export
/// on, every existing roster family produces bit-identical objectives to
/// the telemetry-off run — on the same campaign path `iosched campaign`
/// drives.
#[test]
fn telemetry_flag_is_bit_identical_for_the_existing_roster() {
    let base = r#"{
        "name": "telemetry-pin",
        "platforms": ["vesta"],
        "workloads": [{"Congestion": {"seed": 0}}],
        "policies": ["maxsyseff", "mindilation", "fairshare", "fcfs", "periodic:cong"],
        "seeds": [1, 2],
        "config": CONFIG,
        "threads": 2
    }"#;
    let off = CampaignSpec::from_json(&base.replace("CONFIG", "null")).unwrap();
    let on = CampaignSpec::from_json(&base.replace("CONFIG", r#"{"telemetry": true}"#)).unwrap();
    let off = run_campaign(&off, &ScenarioRunner::with_threads(2)).unwrap();
    let on = run_campaign(&on, &ScenarioRunner::with_threads(2)).unwrap();
    assert_eq!(off.cells.len(), on.cells.len());
    for (off_cell, on_cell) in off.cells.iter().zip(&on.cells) {
        assert_eq!(off_cell.policy, on_cell.policy);
        for (o, n, what) in [
            (
                &off_cell.sys_efficiency,
                &on_cell.sys_efficiency,
                "SysEfficiency",
            ),
            (&off_cell.dilation, &on_cell.dilation, "Dilation"),
            (&off_cell.makespan_secs, &on_cell.makespan_secs, "makespan"),
            (&off_cell.upper_limit, &on_cell.upper_limit, "upper limit"),
        ] {
            assert_eq!(
                o.mean.to_bits(),
                n.mean.to_bits(),
                "{what} moved under telemetry for {}",
                off_cell.policy
            );
            assert_eq!(o.std.to_bits(), n.std.to_bits());
            assert_eq!(o.min.to_bits(), n.min.to_bits());
            assert_eq!(o.max.to_bits(), n.max.to_bits());
        }
        // The only difference: the telemetry-on cells carry the
        // utilization aggregate.
        assert!(off_cell.utilization.is_none());
        assert!(on_cell.utilization.is_some());
    }
}

#[test]
fn stream_example_file_is_exactly_the_load_sweep_campaign() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_stream.json");
    let text = std::fs::read_to_string(path).expect("examples/campaign_stream.json is checked in");
    let parsed = CampaignSpec::from_json(&text).expect("example parses");
    let reference = load_sweep::campaign(load_sweep::SWEEP_SEEDS);
    assert_eq!(
        parsed, reference,
        "examples/campaign_stream.json drifted; \
        regenerate with `cargo run --release --example export_campaigns`"
    );
    // The sweep shape: one stream workload per λ, all open-system, the
    // four-policy saturation roster, the warmup window campaign-wide.
    assert_eq!(parsed.workloads.len(), load_sweep::lambdas().len());
    assert!(parsed.workloads.iter().all(|w| w.is_open()));
    assert_eq!(parsed.policies.len(), 4);
    assert!(parsed.policies.iter().any(|p| p.name() == "fairshare"));
    assert!(parsed.policies.iter().any(|p| p.name() == "control:pi"));
    assert!(parsed
        .policies
        .iter()
        .any(|p| p.name().starts_with("periodic:cong")));
    let config = parsed.config.as_ref().expect("shared engine config");
    assert!(config.warmup.as_secs() > 0.0);
    assert!(config.telemetry);
}

/// The campaign path runs stream cells through the same open-system
/// engine the direct `simulate_open` call uses — bit-identical — and
/// attaches the steady aggregates the saturation curves read.
#[test]
fn stream_campaign_cells_match_direct_open_simulation() {
    let full = load_sweep::campaign(load_sweep::SWEEP_SEEDS);
    let spec = CampaignSpec {
        workloads: vec![full.workloads[0].clone(), full.workloads[1].clone()],
        policies: vec![
            iosched_bench::PolicySpec::parse("fairshare").unwrap(),
            iosched_bench::PolicySpec::parse("mindilation").unwrap(),
        ],
        seeds: vec![0, 1],
        ..full
    };
    let result = run_campaign(&spec, &ScenarioRunner::with_threads(2)).expect("sweep runs");
    assert_eq!(result.cells.len(), 4);
    let config = spec.config.clone().unwrap();
    for (cell_idx, cell) in result.cells.iter().enumerate() {
        let queue = cell.queue.as_ref().expect("stream cells aggregate queues");
        let stretch = cell
            .stretch
            .as_ref()
            .expect("stream cells aggregate stretch");
        assert!(queue.mean >= 0.0 && stretch.mean >= 1.0);
        // Recompute the cell's first seed directly.
        let w = cell_idx / spec.policies.len();
        let platform = hpc_io_sched::model::Platform::intrepid();
        let apps = spec.workloads[w]
            .with_seed(0)
            .materialize(&platform)
            .unwrap();
        let mut policy = spec.policies[cell_idx % spec.policies.len()]
            .build(&platform, &apps)
            .unwrap();
        let direct =
            hpc_io_sched::sim::simulate_open(&platform, &apps, policy.as_mut(), &config).unwrap();
        assert_eq!(
            cell.dilation.min.min(cell.dilation.max),
            cell.dilation.min,
            "sanity"
        );
        let direct_queue = direct.steady.unwrap().mean_queue;
        assert!(
            queue.min <= direct_queue + 1e-12 && direct_queue <= queue.max + 1e-12,
            "direct seed-0 queue {direct_queue} outside cell range [{}, {}]",
            queue.min,
            queue.max
        );
        assert_eq!(cell.runs, 2, "every stream cell aggregated both seeds");
    }
}

/// The acceptance scenario for the scenario-aware registry: one campaign
/// JSON sweeping `minmax-0.5`-style online heuristics head-to-head with
/// `periodic:*` offline schedules — the §7-outlook comparison of *Periodic
/// I/O scheduling for super-computers* — through the same runner
/// `iosched campaign` uses.
#[test]
fn one_campaign_sweeps_online_and_offline_policies_head_to_head() {
    let spec = CampaignSpec::from_json(
        r#"{
            "name": "online-vs-periodic",
            "platforms": ["vesta"],
            "workloads": [{"Congestion": {"seed": 0}}],
            "policies": ["minmax-0.5", "priority-maxsyseff", "fairshare", "periodic:cong"],
            "seeds": [1, 3],
            "config": null,
            "threads": 2
        }"#,
    )
    .expect("mixed campaign parses");
    assert_eq!(spec.policies.iter().filter(|p| p.is_offline()).count(), 1);
    let result = run_campaign(&spec, &ScenarioRunner::with_threads(2)).expect("campaign runs");
    assert_eq!(result.cells.len(), 4);
    assert_eq!(result.total_runs, 8);
    let periodic = result
        .cell("congestion", "periodic:cong")
        .expect("offline cell present");
    assert_eq!(periodic.runs, 2);
    assert!(periodic.sys_efficiency.mean > 0.0);
    assert!(periodic.dilation.mean >= 1.0);
    // Cells are keyed by the canonical serde name ("minmax-0.50").
    let online = result
        .cell("congestion", "minmax-0.50")
        .expect("online cell present");
    assert!(online.sys_efficiency.mean > 0.0);
    // Both families aggregated identically: every cell saw both seeds.
    assert!(result.cells.iter().all(|c| c.runs == 2));
}

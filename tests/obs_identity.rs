//! Observation is free, bit for bit: every checked-in campaign cell and
//! the serve session produce byte-identical outcomes with the decision
//! trace attached and detached. This is the obs layer's core contract —
//! the trace, the metrics registry and the span timers read the engine,
//! they never steer it — and these tests pin it on the same checked-in
//! specs (`examples/campaign_*.json`) the paper figures run from.

use hpc_io_sched::model::{AppSpec, Platform, Time};
use hpc_io_sched::sim::{SimOutcome, Simulation};
use iosched_bench::campaign::{CampaignSpec, ScenarioSpec};
use iosched_bench::experiments::load_sweep::stream_10k;
use iosched_core::heuristics::MinDilation;
use iosched_serve::journal::{Journal, ServeSpec};
use iosched_serve::protocol::{parse_request, Request};
use iosched_serve::session::Session;
use iosched_sim::SimConfig;
use std::time::Instant;

const TRACE_CAP: usize = 512;

fn example(name: &str) -> CampaignSpec {
    let path = format!("{}/examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    CampaignSpec::from_json(&json).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Run one campaign cell twice — bare, then with the decision trace
/// attached — on the exact engine entry points the campaign runner uses
/// (closed roster vs open-system stream), and insist the outcomes match
/// to the bit.
fn assert_cell_identical(scenario: &ScenarioSpec) {
    let label = &scenario.label;
    let platform = scenario.platform.build().expect("platform resolves");
    let apps = scenario
        .workload
        .materialize(&platform)
        .expect("workload materializes");
    let config = scenario.config.clone().unwrap_or_default();
    let open = scenario.workload.is_open();

    let run = |traced: bool| -> SimOutcome {
        let mut policy = scenario
            .policy
            .build(&platform, &apps)
            .expect("policy builds");
        let mut sim = if open {
            Simulation::from_stream(&platform, apps.iter().cloned(), policy.as_mut(), &config)
        } else {
            Simulation::new(&platform, &apps, policy.as_mut(), &config)
        }
        .expect("scenario is valid");
        if traced {
            sim.enable_decision_trace(TRACE_CAP);
        }
        sim.run_to_completion().expect("cell runs")
    };

    let bare = run(false);
    let traced = run(true);
    assert_outcomes_identical(label, &bare, &traced);
    let trace = traced.decision_trace.expect("trace was attached");
    assert!(trace.total() > 0, "{label}: the cell left no trace records");
}

fn assert_outcomes_identical(label: &str, bare: &SimOutcome, traced: &SimOutcome) {
    assert_eq!(bare.events, traced.events, "{label}: event count diverged");
    assert_eq!(
        bare.end_time.get().to_bits(),
        traced.end_time.get().to_bits(),
        "{label}: end time diverged"
    );
    assert_eq!(
        bare.report.sys_efficiency.to_bits(),
        traced.report.sys_efficiency.to_bits(),
        "{label}: SysEfficiency diverged"
    );
    assert_eq!(
        bare.report.upper_limit.to_bits(),
        traced.report.upper_limit.to_bits(),
        "{label}: upper limit diverged"
    );
    assert_eq!(
        bare.report.dilation.to_bits(),
        traced.report.dilation.to_bits(),
        "{label}: Dilation diverged"
    );
    assert_eq!(
        bare.per_app_bytes, traced.per_app_bytes,
        "{label}: per-app byte totals diverged"
    );
    assert_eq!(
        bare.steady, traced.steady,
        "{label}: steady-state summary diverged"
    );
}

/// The Fig. 6 campaign (3 congestion mixes × the full 8-policy online
/// roster), seed axis truncated to keep the pin fast — expansion and
/// engine path are identical to the checked-in 200-seed sweep.
#[test]
fn fig6_cells_are_bit_identical_with_the_trace_attached() {
    let spec = CampaignSpec {
        seeds: vec![0, 1],
        ..example("campaign_fig6.json")
    };
    for scenario in spec.scenario_specs() {
        assert_cell_identical(&scenario);
    }
}

/// The Fig. 4 campaign: a single offline `periodic:*` cell — the
/// timetable replay path through the engine, not the online heuristics.
#[test]
fn fig4_periodic_cell_is_bit_identical_with_the_trace_attached() {
    let spec = example("campaign_fig4.json");
    for scenario in spec.scenario_specs() {
        assert_cell_identical(&scenario);
    }
}

/// One open-system cell from the stream load-sweep campaign (Poisson
/// arrivals, admission on release): the `from_stream` engine path.
#[test]
fn stream_campaign_cell_is_bit_identical_with_the_trace_attached() {
    let full = example("campaign_stream.json");
    let spec = CampaignSpec {
        workloads: vec![full.workloads[0].clone()],
        policies: vec![full.policies[0]],
        seeds: full.seeds.first().copied().into_iter().collect(),
        ..full
    };
    let cells: Vec<ScenarioSpec> = spec.scenario_specs().collect();
    assert_eq!(cells.len(), 1);
    assert_cell_identical(&cells[0]);
}

/// The control-loop campaign: the PI feedback policy reads the engine's
/// congestion telemetry — the trace must not perturb that loop either.
#[test]
fn control_campaign_cell_is_bit_identical_with_the_trace_attached() {
    let full = example("campaign_control.json");
    let spec = CampaignSpec {
        workloads: vec![full.workloads[0].clone()],
        policies: vec![full.policies[0]],
        seeds: full.seeds.first().copied().into_iter().collect(),
        ..full
    };
    let cells: Vec<ScenarioSpec> = spec.scenario_specs().collect();
    assert_eq!(cells.len(), 1);
    assert_cell_identical(&cells[0]);
}

/// The serve session: a scripted submit/advance/finish run produces the
/// same outcome bits whether or not the engine carries a decision trace
/// (and therefore whether or not `iosched run --journal` is ever used
/// on its journal). The session's metrics registry is always on — so
/// this also pins that the always-on counters and histograms observe
/// without steering.
#[test]
fn serve_session_is_bit_identical_with_the_trace_attached() {
    let dir = std::env::temp_dir().join(format!("iosched-obs-identity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let run = |traced: bool| -> SimOutcome {
        let spec = ServeSpec {
            platform: Platform::intrepid(),
            policy: iosched_core::registry::PolicyFactory::parse("maxsyseff").unwrap(),
            accel: 0.0,
            config: SimConfig::default(),
        };
        let path = dir.join(if traced { "traced.jsonl" } else { "bare.jsonl" });
        let _ = std::fs::remove_file(&path);
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let mut sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
        if traced {
            sim.enable_decision_trace(TRACE_CAP);
        }
        let journal = Journal::create(&path, &spec).unwrap();
        let mut session = Session::new(sim, journal, &[]).unwrap();
        for k in 0..24usize {
            let line = format!(
                r#"{{"cmd":"submit","procs":{},"work":{},"vol":{},"count":3,"release":{}}}"#,
                128 << (k % 3),
                40.0 + (k % 7) as f64,
                192.0 + 32.0 * (k % 5) as f64,
                60.0 * (k + 1) as f64,
            );
            let Ok(Request::Submit {
                submission,
                release,
            }) = parse_request(&line)
            else {
                panic!("scripted submit failed to parse");
            };
            session
                .submit(submission, release, Time::ZERO)
                .expect("accepted")
                .expect("journaled");
            session
                .advance(Time::secs(60.0 * (k + 1) as f64))
                .expect("advance");
        }
        let (outcome, accepted) = session.finish().expect("session completes");
        assert_eq!(accepted, 24);
        outcome
    };

    let bare = run(false);
    let traced = run(true);
    assert_outcomes_identical("serve session", &bare, &traced);
    let trace = traced.decision_trace.expect("trace was attached");
    assert!(trace.total() > 0, "session left no trace records");
}

/// The decision trace's cost bar. `stream_10k` (10k-application Poisson
/// stream on Intrepid, lean config, MinDilation) runs bare and with the
/// 512-record ring attached, alternating for 15 rounds to cancel drift.
/// The traced minimum must stay within 3 % of the bare minimum, and
/// every round's two outcomes must match to the bit. A wall-clock bar
/// needs a quiet process, so the test is ignored by default; run it in
/// release mode with
/// `cargo test --release --test obs_identity -- --ignored`.
#[test]
#[ignore = "wall-clock bar; run alone in release mode"]
fn decision_trace_costs_at_most_three_percent() {
    const ROUNDS: usize = 15;
    const OVERHEAD_BAR: f64 = 0.03;
    let platform = Platform::intrepid();
    let config = SimConfig {
        per_app_detail: false,
        ..SimConfig::default()
    };
    let apps: Vec<AppSpec> = stream_10k()
        .app_source(&platform)
        .expect("stream spec is valid")
        .collect();
    let (mut min_bare, mut min_traced) = (f64::INFINITY, f64::INFINITY);
    for round in 0..ROUNDS {
        let (bare, bare_secs) = timed_stream_run(&platform, &apps, &config, None);
        let (traced, traced_secs) = timed_stream_run(&platform, &apps, &config, Some(TRACE_CAP));
        assert_outcomes_identical(&format!("stream_10k round {round}"), &bare, &traced);
        min_bare = min_bare.min(bare_secs);
        min_traced = min_traced.min(traced_secs);
    }
    let overhead = min_traced / min_bare - 1.0;
    println!(
        "best of {ROUNDS}: bare {min_bare:.3} s, traced@{TRACE_CAP} {min_traced:.3} s ({:+.2}%)",
        overhead * 100.0
    );
    assert!(
        overhead <= OVERHEAD_BAR,
        "decision-trace overhead {:.2}% > {:.0}%",
        overhead * 100.0,
        OVERHEAD_BAR * 100.0
    );
}

/// One timed `MinDilation` run over `apps`, with a decision trace of
/// `trace_cap` records when given. Never inlined, so the bare and the
/// traced run execute the same machine code and differ only in the
/// runtime-attached trace; a caller specialized per variant would time
/// two differently optimized engines.
#[inline(never)]
fn timed_stream_run(
    platform: &Platform,
    apps: &[AppSpec],
    config: &SimConfig,
    trace_cap: Option<usize>,
) -> (SimOutcome, f64) {
    let mut policy = MinDilation;
    let mut sim = Simulation::from_stream(platform, apps.iter().cloned(), &mut policy, config)
        .expect("stream spec is valid");
    if let Some(cap) = trace_cap {
        sim.enable_decision_trace(cap);
    }
    let started = Instant::now();
    let outcome = sim.run_to_completion().expect("stream runs");
    (outcome, started.elapsed().as_secs_f64())
}

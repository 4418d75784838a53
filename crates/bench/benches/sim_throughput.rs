//! Criterion bench: fluid-simulator event throughput (events/second of
//! simulator work) on a congested moment under each policy family, a
//! timetable replay, and the `stream_10k` open stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iosched_baselines::FairShare;
use iosched_bench::experiments::load_sweep;
use iosched_core::heuristics::{MaxSysEff, MinDilation};
use iosched_core::periodic::{
    InsertionHeuristic, PeriodSearch, PeriodicAppSpec, PeriodicObjective, TimetablePolicy,
};
use iosched_model::Platform;
use iosched_sim::{simulate, simulate_stream, SimConfig};
use iosched_workload::congestion::congested_moment;
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    let platform = Platform::intrepid();
    let apps = congested_moment(&platform, 5);
    let mut group = c.benchmark_group("sim_congested_moment");
    group.sample_size(20);

    group.bench_function(BenchmarkId::new("maxsyseff", apps.len()), |b| {
        b.iter(|| {
            let out = simulate(
                &platform,
                black_box(&apps),
                &mut MaxSysEff,
                &SimConfig::default(),
            )
            .unwrap();
            black_box(out.events)
        });
    });
    group.bench_function(BenchmarkId::new("mindilation", apps.len()), |b| {
        b.iter(|| {
            let out = simulate(
                &platform,
                black_box(&apps),
                &mut MinDilation,
                &SimConfig::default(),
            )
            .unwrap();
            black_box(out.events)
        });
    });
    group.bench_function(BenchmarkId::new("fairshare", apps.len()), |b| {
        b.iter(|| {
            let out = simulate(
                &platform,
                black_box(&apps),
                &mut FairShare,
                &SimConfig::default(),
            )
            .unwrap();
            black_box(out.events)
        });
    });
    group.bench_function(BenchmarkId::new("fairshare+bb", apps.len()), |b| {
        let bb = platform.clone().with_default_burst_buffer();
        b.iter(|| {
            let out = simulate(
                &bb,
                black_box(&apps),
                &mut FairShare,
                &SimConfig::with_burst_buffer(),
            )
            .unwrap();
            black_box(out.events)
        });
    });
    // Closed-loop control: every event reads the telemetry signal,
    // advances the PI loop and the token buckets — the upper bound on
    // the tap's per-event cost (the open-loop cases above measure the
    // always-on tap itself, which must stay within noise).
    group.bench_function(BenchmarkId::new("control", apps.len()), |b| {
        use iosched_core::control::ControlPolicy;
        b.iter(|| {
            let mut policy = ControlPolicy::pi_default();
            let out = simulate(
                &platform,
                black_box(&apps),
                &mut policy,
                &SimConfig::default(),
            )
            .unwrap();
            black_box(out.events)
        });
    });
    // Offline timetable replay: the wakeup-driven event pattern whose
    // confirm-the-running-allocation events exercise the engine's
    // predicted-completion cache.
    group.bench_function(BenchmarkId::new("timetable", apps.len()), |b| {
        let specs: Vec<PeriodicAppSpec> = apps
            .iter()
            .map(|a| PeriodicAppSpec::from_app(a).expect("congested moments are periodic"))
            .collect();
        let schedule = PeriodSearch::new(PeriodicObjective::Dilation)
            .run_complete(&platform, &specs, InsertionHeuristic::Congestion)
            .expect("congested moment schedules cleanly")
            .schedule;
        b.iter(|| {
            let mut policy = TimetablePolicy::new(schedule.clone());
            let out = simulate(
                &platform,
                black_box(&apps),
                &mut policy,
                &SimConfig::default(),
            )
            .unwrap();
            black_box(out.events)
        });
    });
    // Open-system stream, split so events/s measures the engine and not
    // the lazy workload synthesis riding along in the source iterator:
    // `stream_10k_gen` drains the generator alone, `stream_10k_sim`
    // replays a pre-materialized arrival list through the slot-recycling
    // arena (`tests/perf_bars.rs` measures the allocation side).
    group.bench_function(BenchmarkId::new("stream_10k_gen", 10_000), |b| {
        let spec = load_sweep::stream_10k();
        b.iter(|| {
            let source = spec.app_source(&platform).expect("stream spec is valid");
            black_box(source.count())
        });
    });
    group.bench_function(BenchmarkId::new("stream_10k_sim", 10_000), |b| {
        let spec = load_sweep::stream_10k();
        let arrivals: Vec<_> = spec
            .app_source(&platform)
            .expect("stream spec is valid")
            .collect();
        let config = SimConfig {
            per_app_detail: false,
            ..SimConfig::default()
        };
        b.iter(|| {
            let mut policy = MinDilation;
            let out =
                simulate_stream(&platform, arrivals.iter().cloned(), &mut policy, &config).unwrap();
            black_box(out.events)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);

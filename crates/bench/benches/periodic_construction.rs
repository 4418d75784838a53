//! Criterion bench: periodic-schedule construction (one period fill) and
//! the full `(1+ε)` period search, on a congested moment (5–15
//! applications) and on the load sweep's 120-application stream roster,
//! whose shapes repeat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iosched_bench::experiments::load_sweep;
use iosched_core::periodic::{
    build_schedule, InsertionHeuristic, PeriodSearch, PeriodicAppSpec, PeriodicObjective,
};
use iosched_core::registry::PeriodicFactory;
use iosched_model::{AppSpec, Platform};
use iosched_workload::congestion::congested_moment;
use iosched_workload::WorkloadSpec;
use std::hint::black_box;

fn periodic(apps: &[AppSpec]) -> Vec<PeriodicAppSpec> {
    apps.iter()
        .map(|a| PeriodicAppSpec::from_app(a).unwrap())
        .collect()
}

/// The first block of the load sweep (`examples/campaign_stream.json`):
/// 120 arrivals drawn from its congested-moment template, frozen to the
/// roster it generates.
fn stream_roster(platform: &Platform) -> Vec<PeriodicAppSpec> {
    let mut spec = load_sweep::campaign(load_sweep::SWEEP_SEEDS);
    if let WorkloadSpec::Stream { template, .. } = &mut spec.workloads[0] {
        let roster = template.materialize(platform).unwrap();
        **template = WorkloadSpec::Explicit(roster);
    }
    periodic(&spec.bound_workload(0, 0).materialize(platform).unwrap())
}

fn bench_periodic(c: &mut Criterion) {
    let platform = Platform::intrepid();
    let moment = periodic(&congested_moment(&platform, 9));
    let t0 = PeriodSearch::t0(&platform, &moment);

    let mut group = c.benchmark_group("periodic");
    group.sample_size(20);
    for heuristic in [
        InsertionHeuristic::Throughput,
        InsertionHeuristic::Congestion,
    ] {
        group.bench_with_input(
            BenchmarkId::new("fill_one_period", heuristic.name()),
            &heuristic,
            |b, &h| {
                b.iter(|| black_box(build_schedule(&platform, black_box(&moment), t0 * 4.0, h)));
            },
        );
    }
    group.bench_function("period_search_eps_0.1", |b| {
        let search = PeriodSearch::new(PeriodicObjective::Dilation)
            .with_epsilon(0.1)
            .with_max_factor(4.0);
        b.iter(|| black_box(search.run(&platform, &moment, InsertionHeuristic::Congestion)));
    });

    let stream = stream_roster(&platform);
    let stream_t0 = PeriodSearch::t0(&platform, &stream);
    for heuristic in [
        InsertionHeuristic::Throughput,
        InsertionHeuristic::Congestion,
    ] {
        group.bench_with_input(
            BenchmarkId::new("stream120_fill_one_period", heuristic.name()),
            &heuristic,
            |b, &h| {
                b.iter(|| {
                    black_box(build_schedule(
                        &platform,
                        black_box(&stream),
                        stream_t0 * 4.0,
                        h,
                    ))
                });
            },
        );
    }
    group.bench_function("stream120_period_search_tmax_32", |b| {
        // What `periodic:cong:tmax=32` runs per load-sweep block.
        let search = PeriodSearch::new(PeriodicFactory::paired_objective(
            InsertionHeuristic::Congestion,
        ))
        .with_max_factor(32.0);
        b.iter(|| {
            black_box(search.run_complete(&platform, &stream, InsertionHeuristic::Congestion))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_periodic);
criterion_main!(benches);

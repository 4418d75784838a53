//! Criterion bench: per-event decision latency of every online policy —
//! the cost the scheduler thread pays at each I/O event (§5.1 overhead).
//! Each policy decides through `allocate_into` on one reused
//! `AllocScratch`, the in-place entry point the engine and the IOR
//! scheduler drive. The Fig. 6 roster selects only the applications its
//! grant loop consumes. At `B` = 64 GiB/s (`policy_allocate`) the 64 and
//! 512 rows are congested and grant a handful, while the 8 cards fit
//! whole; `policy_allocate_uncongested` grants every one of 64 or 512
//! pending applications, the selection's worst case, where it sorts the
//! tail after its linear-scan picks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iosched_core::heuristics::PolicyKind;
use iosched_core::policy::{AllocScratch, AppState, SchedContext};
use iosched_model::{AppId, Bw, Time};
use std::hint::black_box;

fn pending(n: usize) -> Vec<AppState> {
    (0..n)
        .map(|i| AppState {
            id: AppId(i),
            procs: 64 + (i as u64 * 37) % 4_000,
            dilation_ratio: (i as f64 * 0.6180339887).fract(),
            syseff_key: ((i as f64 * 2.414).fract()) * 4_000.0,
            last_io_end: Time::secs((i as f64 * 13.7) % 500.0),
            io_requested_at: Time::secs((i as f64 * 7.3) % 500.0),
            started_io: i % 3 == 0,
            max_bw: Bw::gib_per_sec(1.0 + (i % 32) as f64),
        })
        .collect()
}

fn bench_policies(c: &mut Criterion) {
    let rows: [(&str, &[usize], f64); 2] = [
        ("policy_allocate", &[8, 64, 512], 64.0),
        ("policy_allocate_uncongested", &[64, 512], 1e6),
    ];
    for (group_name, sizes, total_gib) in rows {
        let mut group = c.benchmark_group(group_name);
        for &n in sizes {
            let apps = pending(n);
            let ctx = SchedContext {
                now: Time::secs(1_000.0),
                total_bw: Bw::gib_per_sec(total_gib),
                pending: &apps,
                signal: None,
            };
            for kind in PolicyKind::fig6_roster() {
                let mut policy = kind.build();
                let mut scratch = AllocScratch::new();
                group.bench_with_input(BenchmarkId::new(kind.name(), n), &ctx, |b, ctx| {
                    b.iter(|| {
                        policy.allocate_into(black_box(ctx), &mut scratch);
                        black_box(scratch.alloc.grants.len())
                    })
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);

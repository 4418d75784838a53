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
//!
//! Those rows decide one fixed context over and over. `policy_replay`
//! instead times the decisions a real run asks for: the first 2,000
//! contexts a seed-0 run of the load sweep's stream at its highest
//! arrival rate (`load_sweep::stream_workload`, λ = 0.0014/s) hands
//! `fairshare`, `control:pi`, `mindilation` and the timetable replay
//! `periodic:cong:tmax=32`, with 5.9, 8.1, 7.8 and 49.0 applications
//! pending on average; and (`fig6b:*`) the first 2,000 that seed-0 and
//! then seed-1 runs of Fig. 6's second mix (50 small and 5 large
//! applications, Intrepid, the campaign's default configuration) hand
//! `mindilation`, `priority-minmax-0.50` and `roundrobin`, with 35.6,
//! 35.5 and 39.3 pending: the congested closed roster, where the ranked
//! selection keeps a few of some thirty candidates. The setup
//! prints each sequence's mean. One iteration is one pass over the
//! sequence on one fresh scratch. An online policy is built afresh for
//! each pass, so the stateful controller replays its own trajectory.
//! The timetable is built once, outside the timed loop, from the
//! stream's whole roster: it keeps no decision state, and its period
//! search is not a decision.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iosched_bench::experiments::load_sweep;
use iosched_core::control::CongestionSignal;
use iosched_core::heuristics::PolicyKind;
use iosched_core::policy::{AllocScratch, AppState, OnlinePolicy, SchedContext};
use iosched_core::registry::PolicyFactory;
use iosched_model::{AppId, AppSpec, Bw, Platform, Time};
use iosched_sim::{simulate, simulate_open, SimConfig};
use iosched_workload::{MixConfig, WorkloadSpec};
use std::hint::black_box;

/// Decisions recorded per policy.
const REPLAY_DECISIONS: usize = 2_000;

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

/// One recorded decision context: `now`, `B`, the signal and the
/// pending snapshot.
type Recorded = (Time, Bw, Option<CongestionSignal>, Vec<AppState>);

/// Forwards to `inner` and keeps the first [`REPLAY_DECISIONS`] contexts
/// it is handed.
struct Recorder {
    inner: Box<dyn OnlinePolicy>,
    contexts: Vec<Recorded>,
}

impl OnlinePolicy for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        if self.contexts.len() < REPLAY_DECISIONS {
            let pending = ctx.pending.to_vec();
            self.contexts
                .push((ctx.now, ctx.total_bw, ctx.signal, pending));
        }
        self.inner.allocate_into(ctx, scratch);
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.inner.next_wakeup(now)
    }
}

/// The load sweep's seed-0 stream at its highest λ.
fn sweep_apps(platform: &Platform) -> Vec<AppSpec> {
    let lambda = load_sweep::lambdas().into_iter().fold(0.0, f64::max);
    load_sweep::stream_workload(lambda)
        .with_seed(0)
        .materialize(platform)
        .expect("the sweep's stream materializes")
}

/// Fig. 6's second mix at `seed`, as `examples/campaign_fig6.json`
/// binds it.
fn fig6b_apps(platform: &Platform, seed: u64) -> Vec<AppSpec> {
    WorkloadSpec::Mix {
        config: MixConfig::fig6b(),
        seed,
    }
    .materialize(platform)
    .expect("the Fig. 6 mix materializes")
}

/// The first [`REPLAY_DECISIONS`] contexts that the runs of `rosters`,
/// one after another, hand `policy`: the sweep's open run for a stream,
/// the campaign's closed run for a roster.
fn record(
    platform: &Platform,
    rosters: &[Vec<AppSpec>],
    open: bool,
    policy: &PolicyFactory,
) -> Vec<Recorded> {
    let mut contexts = Vec::new();
    for apps in rosters {
        if contexts.len() >= REPLAY_DECISIONS {
            break;
        }
        let inner = policy.build(platform, apps).expect("the policy builds");
        let mut recorder = Recorder { inner, contexts };
        if open {
            let config = load_sweep::campaign(1)
                .config
                .expect("the sweep configures its runs");
            simulate_open(platform, apps, &mut recorder, &config)
                .expect("the sweep's run completes");
        } else {
            simulate(platform, apps, &mut recorder, &SimConfig::default())
                .expect("the Fig. 6 run completes");
        }
        contexts = recorder.contexts;
    }
    contexts
}

fn bench_replay(c: &mut Criterion) {
    let platform = Platform::intrepid();
    let sweep = [sweep_apps(&platform)];
    // A seed-0 run asks for about 1,075 decisions; seed 1 fills the rest.
    let fig6b = [fig6b_apps(&platform, 0), fig6b_apps(&platform, 1)];
    let mut group = c.benchmark_group("policy_replay");
    let sequences = [
        ("", "fairshare", &sweep[..], true),
        ("", "control:pi", &sweep, true),
        ("", "mindilation", &sweep, true),
        ("", "periodic:cong:tmax=32", &sweep, true),
        ("fig6b:", "mindilation", &fig6b, false),
        ("fig6b:", "priority-minmax-0.50", &fig6b, false),
        ("fig6b:", "roundrobin", &fig6b, false),
    ];
    for (prefix, name, rosters, open) in sequences {
        let policy = PolicyFactory::parse(name).expect("roster name");
        let contexts = record(&platform, rosters, open, &policy);
        let pending: usize = contexts.iter().map(|(.., p)| p.len()).sum();
        let name = format!("{prefix}{name}");
        println!(
            "policy_replay/{name}: {} decisions, mean pending {:.1}",
            contexts.len(),
            pending as f64 / contexts.len() as f64
        );
        let mut offline = policy.is_offline().then(|| {
            policy
                .build(&platform, &rosters[0])
                .expect("the sweep's policy builds")
        });
        group.bench_with_input(
            BenchmarkId::new(&name, contexts.len()),
            &contexts,
            |b, contexts| {
                b.iter(|| {
                    let mut online;
                    let policy: &mut dyn OnlinePolicy = match offline.as_mut() {
                        Some(timetable) => timetable.as_mut(),
                        None => {
                            online = policy.build_online(&platform).expect("an online policy");
                            online.as_mut()
                        }
                    };
                    let mut scratch = AllocScratch::new();
                    let mut granted = 0;
                    for (now, total_bw, signal, pending) in contexts {
                        let ctx = SchedContext {
                            now: *now,
                            total_bw: *total_bw,
                            pending,
                            signal: *signal,
                        };
                        policy.allocate_into(black_box(&ctx), &mut scratch);
                        granted += scratch.alloc.grants.len();
                    }
                    granted
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_policies, bench_replay);
criterion_main!(benches);

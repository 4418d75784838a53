//! Open-system integration: the lazy stream path against its
//! materialized twin, the steady-state window, and the admission-order
//! invariant guarding the engine's `AppId`-keyed event structures.

use hpc_io_sched::model::{AppId, AppSpec, Bw, Bytes, Platform, Time};
use hpc_io_sched::sim::{simulate, simulate_open, simulate_stream, SimConfig, Simulation};
use hpc_io_sched::workload::{ArrivalProcess, StopRule, WorkloadSpec};
use iosched_core::baselines::FairShare;
use iosched_core::heuristics::PolicyKind;
use proptest::prelude::*;

fn stream_spec(rate: f64, apps: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec::Stream {
        arrivals: ArrivalProcess::Poisson { rate },
        template: Box::new(WorkloadSpec::Congestion { seed: 0 }),
        stop: StopRule::Apps(apps),
        seed,
    }
}

/// The lazy iterator and the materialized roster describe the same
/// system: feeding either into the stream engine is bit-identical.
#[test]
fn lazy_and_materialized_streams_are_bit_identical() {
    let platform = Platform::intrepid();
    let spec = stream_spec(0.001, 150, 7);
    let apps = spec.materialize(&platform).unwrap();

    let mut policy = iosched_core::heuristics::MinDilation;
    let lazy = simulate_stream(
        &platform,
        spec.app_source(&platform).unwrap(),
        &mut policy,
        &SimConfig::default(),
    )
    .unwrap();
    let mut policy = iosched_core::heuristics::MinDilation;
    let eager = simulate_open(&platform, &apps, &mut policy, &SimConfig::default()).unwrap();

    assert_eq!(lazy.events, eager.events);
    assert_eq!(
        lazy.report.sys_efficiency.to_bits(),
        eager.report.sys_efficiency.to_bits()
    );
    assert_eq!(
        lazy.report.dilation.to_bits(),
        eager.report.dilation.to_bits()
    );
    assert_eq!(lazy.per_app_bytes, eager.per_app_bytes);
    let (l, e) = (lazy.steady.unwrap(), eager.steady.unwrap());
    assert_eq!(l, e, "steady summaries must agree");
    assert_eq!(l.admitted, 150);
    assert_eq!(l.left_in_system, 0);
}

/// An MMPP burst stream runs end to end and its clustered arrivals show
/// up as a deeper queue than a Poisson stream of the same average rate.
#[test]
fn mmpp_bursts_deepen_the_queue() {
    let platform = Platform::intrepid();
    // Same long-run average rate (0.0008/s): the MMPP spends half its
    // time in each phase (equal mean dwells), so calm 0.0001 + burst
    // 0.0015 average to 0.0008 — with 15x bursts over the calm rate.
    let poisson = stream_spec(0.0008, 150, 3);
    let mmpp = WorkloadSpec::Stream {
        arrivals: ArrivalProcess::Mmpp {
            calm_rate: 0.0001,
            burst_rate: 0.0015,
            calm_secs: 20_000.0,
            burst_secs: 20_000.0,
        },
        template: Box::new(WorkloadSpec::Congestion { seed: 0 }),
        stop: StopRule::Apps(150),
        seed: 3,
    };
    let config = SimConfig {
        warmup: Time::secs(2_000.0),
        ..SimConfig::default()
    };
    let run = |spec: &WorkloadSpec| {
        let mut policy = FairShare;
        simulate_stream(
            &platform,
            spec.app_source(&platform).unwrap(),
            &mut policy,
            &config,
        )
        .unwrap()
        .steady
        .unwrap()
    };
    let flat = run(&poisson);
    let burst = run(&mmpp);
    assert!(flat.mean_queue > 0.0 && burst.mean_queue > 0.0);
    assert!(
        burst.mean_queue > flat.mean_queue,
        "bursts must queue deeper: {} vs {}",
        burst.mean_queue,
        flat.mean_queue
    );
}

/// Steppable inspection of a stream run: admissions trickle in, the
/// arena stays at concurrency size, everything drains by the end.
#[test]
fn stream_admission_is_incremental_and_bounded() {
    let platform = Platform::intrepid();
    let spec = stream_spec(0.001, 300, 11);
    let config = SimConfig {
        per_app_detail: false,
        ..SimConfig::default()
    };
    let mut policy = FairShare;
    let mut sim = Simulation::from_stream(
        &platform,
        spec.app_source(&platform).unwrap(),
        &mut policy,
        &config,
    )
    .unwrap();
    let mut saw_partial_admission = false;
    while !sim.is_finished() {
        sim.step().unwrap();
        if sim.admitted() > 0 && sim.admitted() < 50 {
            saw_partial_admission = true;
        }
    }
    assert!(saw_partial_admission, "admissions must trickle in");
    assert_eq!(sim.admitted(), 300);
    assert_eq!(sim.finished_count(), 300);
    assert!(
        sim.runtimes().len() < 100,
        "arena {} slots for 300 apps",
        sim.runtimes().len()
    );
}

/// Build a closed scenario from proptest-drawn shape tuples.
fn build_apps(raw: Vec<(u64, f64, f64, usize, f64)>) -> Vec<AppSpec> {
    raw.into_iter()
        .enumerate()
        .map(|(i, (procs, w, vol, n, rel))| {
            AppSpec::periodic(i, Time::secs(rel), procs, Time::secs(w), Bytes::gib(vol), n)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite invariant guarding the admission structures: the engine
    /// keys every event queue on `AppId`, so a *shuffled* closed roster
    /// produces bit-identical outcomes to the release-sorted one under
    /// every Fig. 6 policy.
    #[test]
    fn outcome_is_invariant_under_roster_permutation(
        raw in prop::collection::vec(
            (1u64..200, 1.0f64..120.0, 0.1f64..80.0, 1usize..5, 0.0f64..60.0),
            2..7,
        ),
        keys in prop::collection::vec(any::<u64>(), 8),
    ) {
        let platform = Platform::new(
            "perm",
            2_000,
            Bw::gib_per_sec(0.05),
            Bw::gib_per_sec(6.0),
        );
        let sorted = build_apps(raw);
        // Shuffle deterministically by the drawn keys.
        let mut order: Vec<usize> = (0..sorted.len()).collect();
        order.sort_by_key(|&i| keys[i % keys.len()].wrapping_add(i as u64));
        let shuffled: Vec<AppSpec> = order.iter().map(|&i| sorted[i].clone()).collect();
        for kind in PolicyKind::fig6_roster() {
            let mut p1 = kind.build();
            let mut p2 = kind.build();
            let a = simulate(&platform, &sorted, p1.as_mut(), &SimConfig::default())
                .expect("sorted roster is valid");
            let b = simulate(&platform, &shuffled, p2.as_mut(), &SimConfig::default())
                .expect("a permutation of a valid roster is valid");
            prop_assert_eq!(a.events, b.events, "{}: event count moved", p1.name());
            prop_assert_eq!(
                a.report.sys_efficiency.to_bits(),
                b.report.sys_efficiency.to_bits(),
                "{}: SysEfficiency moved under permutation", p1.name()
            );
            prop_assert_eq!(
                a.report.dilation.to_bits(),
                b.report.dilation.to_bits(),
                "{}: Dilation moved under permutation", p1.name()
            );
            prop_assert_eq!(&a.per_app_bytes, &b.per_app_bytes);
        }
    }
}

/// Deterministic (non-proptest) permutation sweep: every rotation and a
/// pseudo-random shuffle of a mixed roster, under every Fig. 6 policy
/// plus FairShare, must be bit-identical to the sorted roster.
#[test]
fn rotations_and_shuffles_are_bit_identical() {
    let platform = Platform::intrepid();
    let sorted = hpc_io_sched::workload::congested_moment(&platform, 9);
    let n = sorted.len();
    let mut orders: Vec<Vec<usize>> = (1..n)
        .map(|r| (0..n).map(|i| (i + r) % n).collect())
        .collect();
    // A fixed interleave as the "shuffle".
    orders.push((0..n).map(|i| (i * 7 + 3) % n).collect());

    let mut policies: Vec<Box<dyn iosched_core::policy::OnlinePolicy>> = PolicyKind::fig6_roster()
        .into_iter()
        .map(|k| k.build())
        .collect();
    policies.push(Box::new(FairShare));

    for policy in &mut policies {
        let reference = simulate(&platform, &sorted, policy.as_mut(), &SimConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
        for order in &orders {
            let permuted: Vec<AppSpec> = order.iter().map(|&i| sorted[i].clone()).collect();
            let out = simulate(&platform, &permuted, policy.as_mut(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
            assert_eq!(out.events, reference.events, "{}", policy.name());
            assert_eq!(
                out.report.sys_efficiency.to_bits(),
                reference.report.sys_efficiency.to_bits(),
                "{}: SysEfficiency moved under permutation",
                policy.name()
            );
            assert_eq!(
                out.report.dilation.to_bits(),
                reference.report.dilation.to_bits(),
                "{}: Dilation moved under permutation",
                policy.name()
            );
            // Per-app detail is id-sorted either way.
            assert_eq!(
                out.per_app_bytes,
                reference.per_app_bytes,
                "{}",
                policy.name()
            );
            for (a, b) in out.report.per_app.iter().zip(&reference.report.per_app) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.finish.get().to_bits(), b.finish.get().to_bits());
                assert_eq!(a.rho_tilde.to_bits(), b.rho_tilde.to_bits());
            }
        }
    }
}

/// Horizon-halted stream: the run stops at the horizon, reports the
/// window, and counts the cut-off applications.
#[test]
fn horizon_truncates_a_stream_mid_flight() {
    let platform = Platform::intrepid();
    let spec = stream_spec(0.001, 500, 5);
    let config = SimConfig {
        warmup: Time::secs(10_000.0),
        horizon: Some(Time::secs(200_000.0)),
        ..SimConfig::default()
    };
    let mut policy = FairShare;
    let out = simulate_stream(
        &platform,
        spec.app_source(&platform).unwrap(),
        &mut policy,
        &config,
    )
    .unwrap();
    assert!(out.end_time.approx_eq(Time::secs(200_000.0)));
    let steady = out.steady.unwrap();
    // ~0.001/s × 200k s ≈ 200 arrivals; some still in flight at the cut.
    assert!(steady.admitted < 500, "horizon must cut admissions short");
    assert!(steady.admitted > 150);
    assert!(steady.completed > 0);
    assert!(
        steady.left_in_system > 0,
        "someone is mid-flight at the cut"
    );
    assert!((steady.window_secs - 190_000.0).abs() < 1.0);
    // Only finished applications are in the report.
    assert_eq!(
        out.report.per_app.len(),
        steady.admitted - steady.left_in_system
    );
    for o in &out.report.per_app {
        assert!(o.finish.approx_le(Time::secs(200_000.0)));
    }
    // Ids are dense-prefix-free: the report is sorted by id.
    for w in out.report.per_app.windows(2) {
        assert!(w[0].id < w[1].id);
    }
    let _ = AppId(0);
}

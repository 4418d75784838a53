//! Property tests pinning the data-oriented engine core bit-exactly.
//!
//! The SoA hot-state split and the fused decay+grant pass are pure
//! reorganizations: neither may change a single bit of any simulated
//! result. These tests drive randomized
//! closed rosters and open streams (including horizon and warmup
//! windows) through the engine and assert, via `f64::to_bits`
//! fingerprints, that
//!
//! * every run is bitwise deterministic (no hidden iteration-order or
//!   allocation-order dependence in the hot state),
//! * observational toggles (trace recording, telemetry series) never
//!   perturb the physics,
//! * the lazy stream path and the materialized open-roster path agree
//!   exactly, under horizons and warmup windows included.
//!
//! The compute heap's tie order (ascending `AppId` at equal times) is
//! pinned next to it, in the engine's unit tests.

use iosched_core::heuristics::PolicyKind;
use iosched_model::{AppSpec, Bytes, Platform, Time};
use iosched_sim::{simulate, simulate_open, simulate_stream, SimConfig, SimOutcome};
use proptest::prelude::*;

fn platform() -> Platform {
    Platform::new(
        "prop",
        1_000,
        iosched_model::Bw::gib_per_sec(0.1),
        iosched_model::Bw::gib_per_sec(10.0),
    )
}

/// Bit-exact digest of everything a run reports. Two outcomes with equal
/// fingerprints are identical to the last ulp.
fn fingerprint(out: &SimOutcome) -> Vec<u64> {
    let mut fp = vec![
        out.events as u64,
        out.end_time.get().to_bits(),
        out.report.sys_efficiency.to_bits(),
        out.report.upper_limit.to_bits(),
        out.report.dilation.to_bits(),
    ];
    for a in &out.report.per_app {
        fp.extend([
            a.id.0 as u64,
            a.procs,
            a.release.get().to_bits(),
            a.finish.get().to_bits(),
            a.rho.to_bits(),
            a.rho_tilde.to_bits(),
        ]);
    }
    for (id, bytes) in &out.per_app_bytes {
        fp.extend([id.0 as u64, bytes.get().to_bits()]);
    }
    if let Some(s) = &out.steady {
        fp.extend([
            s.warmup_secs.to_bits(),
            s.window_secs.to_bits(),
            s.admitted as u64,
            s.completed as u64,
            s.left_in_system as u64,
            s.mean_stretch.to_bits(),
            s.max_stretch.to_bits(),
            s.mean_queue.to_bits(),
            s.mean_utilization.to_bits(),
        ]);
    }
    fp
}

/// One periodic application with bounded parameters; `procs ≤ 200` keeps
/// any roster of ≤ 5 within the closed `Σβ ≤ N = 1000` budget.
fn arb_app(id: usize) -> impl Strategy<Value = AppSpec> {
    (
        1u64..=200,
        0.1f64..50.0,
        0.5f64..40.0,
        1usize..4,
        0.0f64..30.0,
    )
        .prop_map(move |(procs, work, vol, instances, release)| {
            AppSpec::periodic(
                id,
                Time::secs(release),
                procs,
                Time::secs(work),
                Bytes::gib(vol),
                instances,
            )
        })
}

fn arb_roster() -> impl Strategy<Value = Vec<AppSpec>> {
    (1usize..=5).prop_flat_map(|n| (0..n).map(arb_app).collect::<Vec<_>>())
}

/// A release-sorted open arrival stream built from positive
/// inter-arrival gaps (what `Simulation::from_stream` requires).
fn arb_stream() -> impl Strategy<Value = Vec<AppSpec>> {
    (1usize..=12)
        .prop_flat_map(|n| {
            (
                (0..n).map(arb_app).collect::<Vec<_>>(),
                prop::collection::vec(0.0f64..40.0, n),
            )
        })
        .prop_map(|(mut apps, gaps)| {
            let mut t = 0.0;
            for (a, g) in apps.iter_mut().zip(gaps) {
                t += g;
                a.set_release(Time::secs(t));
            }
            apps
        })
}

/// A policy index into the fig. 6 roster (resolved per run so each run
/// gets a fresh policy with no carried state).
fn arb_policy() -> impl Strategy<Value = usize> {
    0..PolicyKind::fig6_roster().len()
}

fn build_policy(index: usize) -> Box<dyn iosched_core::policy::OnlinePolicy> {
    PolicyKind::fig6_roster()[index].build()
}

proptest! {
    /// Two identical closed-roster runs produce bit-identical outcomes,
    /// and the recorded trace replays every §2.1 constraint.
    #[test]
    fn closed_roster_runs_are_bitwise_deterministic(
        apps in arb_roster(),
        policy in arb_policy(),
    ) {
        let p = platform();
        let config = SimConfig::traced();
        let a = simulate(&p, &apps, build_policy(policy).as_mut(), &config)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let b = simulate(&p, &apps, build_policy(policy).as_mut(), &config)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        let procs_of = |id: iosched_model::AppId| {
            apps.iter().find(|s| s.id() == id).map(|s| s.procs())
        };
        a.trace
            .as_ref()
            .expect("traced config records")
            .validate(&p, &procs_of)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// Trace recording and the telemetry series are observations: with
    /// them on or off, the physics fingerprint is bit-identical.
    #[test]
    fn observation_toggles_never_perturb_the_physics(
        apps in arb_roster(),
        policy in arb_policy(),
    ) {
        let p = platform();
        let base = simulate(
            &p, &apps, build_policy(policy).as_mut(), &SimConfig::default(),
        ).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let want = fingerprint(&base);
        for config in [
            SimConfig::traced(),
            SimConfig { telemetry: true, ..SimConfig::default() },
            SimConfig { telemetry: true, ..SimConfig::traced() },
        ] {
            let out = simulate(&p, &apps, build_policy(policy).as_mut(), &config)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&fingerprint(&out), &want);
        }
    }

    /// Open streams — lazy iterator, slot-recycling arena, horizon and
    /// warmup windows — are bitwise deterministic, and the materialized
    /// open-roster entry point agrees exactly with the lazy stream.
    #[test]
    fn open_streams_are_bitwise_deterministic(
        arrivals in arb_stream(),
        policy in arb_policy(),
        warmup in 0.0f64..50.0,
        horizon_on in any::<bool>(),
        horizon_secs in 100.0f64..2_000.0,
        detail in any::<bool>(),
    ) {
        let p = platform();
        let config = SimConfig {
            warmup: Time::secs(warmup),
            horizon: horizon_on.then(|| Time::secs(horizon_secs)),
            per_app_detail: detail,
            ..SimConfig::default()
        };
        let a = simulate_stream(
            &p, arrivals.iter().cloned(), build_policy(policy).as_mut(), &config,
        ).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let b = simulate_stream(
            &p, arrivals.iter().cloned(), build_policy(policy).as_mut(), &config,
        ).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        let open = simulate_open(
            &p, &arrivals, build_policy(policy).as_mut(), &config,
        ).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(fingerprint(&a), fingerprint(&open));
    }
}

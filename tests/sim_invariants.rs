//! Property-based invariants of the fluid simulator, checked across
//! random scenarios and every policy of the paper (§2.1's "rules of the
//! game": never exceed `b` per processor, never exceed `B` in aggregate,
//! transfer exactly `vol_io` per instance).

use iosched_core::baselines::{FairShare, Fcfs};
use iosched_core::heuristics::PolicyKind;
use iosched_core::policy::OnlinePolicy;
use iosched_model::{AppId, AppSpec, Bw, Bytes, Platform, Time};
use iosched_sim::{simulate, SimConfig};
use proptest::prelude::*;

/// Random platform: 200–4,000 nodes, b in [0.02, 0.2] GiB/s, B sized so
/// that 5–50 % of the machine saturates it.
fn arb_platform() -> impl Strategy<Value = Platform> {
    (200u64..4_000, 0.02f64..0.2, 0.05f64..0.5).prop_map(|(procs, b, sat_frac)| {
        let total = b * procs as f64 * sat_frac;
        Platform::new(
            "prop",
            procs,
            Bw::gib_per_sec(b),
            Bw::gib_per_sec(total.max(0.1)),
        )
    })
}

/// Random periodic application sized for `max_procs`.
fn arb_app(max_procs: u64) -> impl Strategy<Value = (u64, f64, f64, usize, f64)> {
    (
        1u64..=max_procs,
        1.0f64..300.0, // work seconds
        0.1f64..200.0, // volume GiB
        1usize..6,     // instances
        0.0f64..100.0, // release
    )
}

fn scenario() -> impl Strategy<Value = (Platform, Vec<AppSpec>)> {
    arb_platform().prop_flat_map(|platform| {
        let per_app = platform.procs / 8;
        let apps = prop::collection::vec(arb_app(per_app.max(1)), 1..8);
        (Just(platform), apps).prop_map(|(platform, raw)| {
            let apps = raw
                .into_iter()
                .enumerate()
                .map(|(i, (procs, w, vol, n, rel))| {
                    AppSpec::periodic(i, Time::secs(rel), procs, Time::secs(w), Bytes::gib(vol), n)
                })
                .collect();
            (platform, apps)
        })
    })
}

fn all_policies() -> Vec<Box<dyn OnlinePolicy>> {
    let mut v = iosched_core::standard_policies();
    v.push(Box::new(FairShare));
    v.push(Box::new(Fcfs));
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every policy transfers exactly the requested volume for every
    /// application, and the recorded trace violates no capacity rule.
    #[test]
    fn conservation_and_capacity((platform, apps) in scenario()) {
        for mut policy in all_policies() {
            let out = simulate(&platform, &apps, policy.as_mut(), &SimConfig::traced())
                .expect("random scenarios are valid");
            // Conservation: delivered bytes == Σ vol per app.
            for app in &apps {
                let delivered = out.bytes_of(app.id()).expect("every app reported");
                let expected = app.total_vol();
                prop_assert!(
                    (delivered.get() - expected.get()).abs()
                        <= 1e-6 * expected.get().max(1.0),
                    "{}: {} delivered vs {} requested under {}",
                    app.id(), delivered, expected, policy.name()
                );
            }
            // Capacity rules, replayed from the trace.
            let trace = out.trace.as_ref().expect("trace requested");
            let procs_of = |id: AppId| apps.iter().find(|a| a.id() == id).map(AppSpec::procs);
            trace.validate(&platform, &procs_of).map_err(|e| {
                TestCaseError::fail(format!("{}: {e}", policy.name()))
            })?;
        }
    }

    /// ρ̃ ≤ ρ and dilation ≥ 1 for every application under every policy;
    /// the report's SysEfficiency never exceeds its upper limit.
    #[test]
    fn efficiency_bounds((platform, apps) in scenario()) {
        for mut policy in all_policies() {
            let out = simulate(&platform, &apps, policy.as_mut(), &SimConfig::default())
                .expect("valid scenario");
            for o in &out.report.per_app {
                prop_assert!(o.rho_tilde <= o.rho + 1e-9,
                    "{}: rho_tilde {} > rho {}", o.id, o.rho_tilde, o.rho);
                prop_assert!(o.dilation() >= 1.0);
                prop_assert!(o.finish.approx_ge(o.release));
            }
            prop_assert!(
                out.report.sys_efficiency <= out.report.upper_limit + 1e-9
            );
        }
    }

    /// A single application always runs at dedicated speed: completion at
    /// exactly `r + Σ(w + vol/min(β·b, B))`, dilation exactly 1.
    #[test]
    fn dedicated_mode_is_exact(
        (procs, w, vol, n, rel) in arb_app(500),
    ) {
        let platform = Platform::new("ded", 4_000, Bw::gib_per_sec(0.05), Bw::gib_per_sec(10.0));
        let app = AppSpec::periodic(0, Time::secs(rel), procs, Time::secs(w),
                                    Bytes::gib(vol), n);
        let expected = Time::secs(rel) + app.dedicated_span(&platform);
        for mut policy in all_policies() {
            let out = simulate(
                &platform,
                std::slice::from_ref(&app),
                policy.as_mut(),
                &SimConfig::default(),
            )
            .expect("valid scenario");
            let o = out.report.app(AppId(0)).unwrap();
            prop_assert!(
                o.finish.approx_eq(expected),
                "{}: finish {} vs expected {}", policy.name(), o.finish, expected
            );
            prop_assert!((out.report.dilation - 1.0).abs() < 1e-6);
        }
    }

    /// Determinism: the same scenario under the same policy produces the
    /// same report.
    #[test]
    fn simulation_is_deterministic((platform, apps) in scenario()) {
        for kind in PolicyKind::fig6_roster() {
            let mut p1 = kind.build();
            let mut p2 = kind.build();
            let a = simulate(&platform, &apps, p1.as_mut(), &SimConfig::default()).unwrap();
            let b = simulate(&platform, &apps, p2.as_mut(), &SimConfig::default()).unwrap();
            prop_assert_eq!(a.events, b.events);
            prop_assert!((a.report.sys_efficiency - b.report.sys_efficiency).abs() < 1e-12);
            prop_assert!(
                a.report.dilation == b.report.dilation
                    || (a.report.dilation - b.report.dilation).abs() < 1e-12
            );
        }
    }
}

/// Burst-buffer runs conserve volume too, and never make things worse
/// than the plain run for the same fair-share policy.
#[test]
fn burst_buffer_conservation_fixed_cases() {
    let platform = Platform::new("bb", 4_000, Bw::gib_per_sec(0.05), Bw::gib_per_sec(10.0))
        .with_default_burst_buffer();
    for seed in 0..5u64 {
        let apps: Vec<AppSpec> = (0..4)
            .map(|i| {
                AppSpec::periodic(
                    i,
                    Time::secs(i as f64 * 7.0 + seed as f64),
                    500,
                    Time::secs(20.0 + seed as f64 * 3.0),
                    Bytes::gib(100.0 + 20.0 * i as f64),
                    4,
                )
            })
            .collect();
        let out = simulate(
            &platform,
            &apps,
            &mut FairShare,
            &SimConfig::with_burst_buffer(),
        )
        .unwrap();
        for app in &apps {
            let delivered = out.bytes_of(app.id()).unwrap();
            assert!(
                (delivered.get() - app.total_vol().get()).abs() <= 1e-6 * app.total_vol().get(),
                "seed {seed} {}: {delivered} vs {}",
                app.id(),
                app.total_vol()
            );
        }
    }
}

/// Forwards every decision to the wrapped policy but keeps the provided
/// `reads_progress_keys` (`true`), so the engine computes every key.
struct EveryKey(Box<dyn OnlinePolicy>);

impl OnlinePolicy for EveryKey {
    fn name(&self) -> String {
        self.0.name()
    }

    fn allocate_into(
        &mut self,
        ctx: &iosched_core::policy::SchedContext<'_>,
        scratch: &mut iosched_core::policy::AllocScratch,
    ) {
        self.0.allocate_into(ctx, scratch);
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.0.next_wakeup(now)
    }
}

/// Every registry policy that declares it reads no progress key decides
/// exactly as when the engine computes every key: on the three Fig. 6
/// mixes and on a short open stream, the run is the same bit for bit
/// with the policy driven directly (keys left NaN) and through a
/// wrapper that keeps the default. A policy that declared no keys but
/// ranked by one would rank NaNs here and move a finish time.
#[test]
fn policies_without_progress_keys_decide_as_with_every_key() {
    use iosched_bench::experiments::load_sweep;
    use iosched_core::registry::PolicyFactory;
    use iosched_sim::simulate_open;
    use iosched_workload::{MixConfig, WorkloadSpec};

    let platform = Platform::intrepid();
    let mut scenarios: Vec<(String, Vec<AppSpec>, bool)> =
        [MixConfig::fig6a(), MixConfig::fig6b(), MixConfig::fig6c()]
            .into_iter()
            .enumerate()
            .map(|(k, config)| {
                let apps = WorkloadSpec::Mix { config, seed: 0 }
                    .materialize(&platform)
                    .unwrap();
                (format!("fig6 mix {k}"), apps, false)
            })
            .collect();
    let lambda = load_sweep::lambdas().into_iter().fold(0.0, f64::max);
    let mut stream = load_sweep::stream_workload(lambda)
        .with_seed(0)
        .materialize(&platform)
        .unwrap();
    stream.truncate(40);
    scenarios.push(("stream".into(), stream, true));
    let config = SimConfig::default();
    let run = |policy: &mut dyn OnlinePolicy, apps: &[AppSpec], open: bool| {
        let out = if open {
            simulate_open(&platform, apps, policy, &config)
        } else {
            simulate(&platform, apps, policy, &config)
        }
        .unwrap();
        format!("{:?} {:?} {}", out.report.per_app, out.end_time, out.events)
    };
    let mut checked = Vec::new();
    for factory in PolicyFactory::complete_roster() {
        for (label, apps, open) in &scenarios {
            // A periodic search can find no schedule for a scenario.
            let Ok(mut direct) = factory.build(&platform, apps) else {
                continue;
            };
            if direct.reads_progress_keys() {
                continue;
            }
            let mut wrapped = EveryKey(factory.build(&platform, apps).unwrap());
            assert!(wrapped.reads_progress_keys());
            assert_eq!(
                run(direct.as_mut(), apps, *open),
                run(&mut wrapped, apps, *open),
                "{} on {label}",
                factory.name()
            );
            checked.push(factory.name());
        }
    }
    for name in ["roundrobin", "priority-roundrobin", "fairshare", "fcfs"] {
        assert_eq!(
            checked.iter().filter(|n| *n == name).count(),
            scenarios.len(),
            "{name} was not checked on every scenario"
        );
    }
    assert!(
        checked.iter().any(|n| n.starts_with("periodic:")),
        "no timetable was checked: {checked:?}"
    );
}

//! Cross-crate checks of the §3.2 periodic machinery: schedules built by
//! the insertion heuristics stay valid on random inputs, steady state
//! agrees with the unrolled finite-horizon execution, the fluid engine
//! replaying a timetable agrees with the analytic unrolling, the Theorem 1
//! reduction round-trips through the scheduler types, and the period
//! search's output matches recorded digests bit for bit.

use iosched_bench::campaign::CampaignSpec;
use iosched_bench::experiments::fig04;
use iosched_core::periodic::{
    build_schedule, InsertionHeuristic, PeriodSearch, PeriodicAppSpec, PeriodicObjective,
    SearchResult, TimetablePolicy,
};
use iosched_core::registry::PeriodicFactory;
use iosched_core::three_partition::ThreePartition;
use iosched_model::{Bw, Bytes, Platform, Time};
use iosched_sim::periodic_exec::{replay_apps, unroll_report};
use iosched_sim::{simulate, SimConfig};
use iosched_workload::congestion::congested_moment;
use iosched_workload::WorkloadSpec;
use proptest::prelude::*;

fn arb_periodic_apps() -> impl Strategy<Value = Vec<PeriodicAppSpec>> {
    prop::collection::vec((1u64..400, 1.0f64..120.0, 0.1f64..80.0), 1..7).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (procs, w, vol))| {
                PeriodicAppSpec::new(i, procs, Time::secs(w), Bytes::gib(vol))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both insertion heuristics produce schedules satisfying every
    /// §3.2.1 constraint on random application sets and periods.
    #[test]
    fn insertion_always_produces_valid_schedules(
        apps in arb_periodic_apps(),
        period_factor in 1.0f64..6.0,
    ) {
        let platform = Platform::new("prop", 4_000, Bw::gib_per_sec(0.05),
                                     Bw::gib_per_sec(10.0));
        let t0: Time = apps.iter().map(|a| a.span(&platform)).fold(Time::ZERO, Time::max);
        let period = t0 * period_factor;
        for heuristic in [InsertionHeuristic::Throughput, InsertionHeuristic::Congestion] {
            let schedule = build_schedule(&platform, &apps, period, heuristic);
            schedule.validate(&platform).map_err(|e| {
                TestCaseError::fail(format!("{}: {e}", heuristic.name()))
            })?;
            // Steady state is well-formed.
            let report = schedule.steady_state(&platform);
            prop_assert!(report.sys_efficiency >= 0.0);
            prop_assert!(report.sys_efficiency <= report.upper_limit + 1e-9);
        }
    }

    /// The unrolled finite-horizon report converges to the analytic
    /// steady state (equation (1) of the paper).
    #[test]
    fn unroll_converges_to_steady_state(apps in arb_periodic_apps()) {
        let platform = Platform::new("prop", 4_000, Bw::gib_per_sec(0.05),
                                     Bw::gib_per_sec(10.0));
        let t0: Time = apps.iter().map(|a| a.span(&platform)).fold(Time::ZERO, Time::max);
        let schedule = build_schedule(&platform, &apps, t0 * 3.0,
                                      InsertionHeuristic::Congestion);
        // Only meaningful when everything got scheduled.
        if schedule.plans.iter().any(|p| p.n_per() == 0) {
            return Ok(());
        }
        let steady = schedule.steady_state(&platform);
        let long = unroll_report(&schedule, &platform, 400);
        prop_assert!(
            (long.sys_efficiency - steady.sys_efficiency).abs() < 5e-3,
            "unrolled {} vs steady {}", long.sys_efficiency, steady.sys_efficiency
        );
    }

    /// Registry cross-validation on *randomized* schedules (extends the
    /// fixed-case tests in `sim::periodic_exec`): replaying a timetable
    /// through the fluid engine reproduces `unroll_report`'s analytic
    /// per-application completion times and objectives — the invariant
    /// that lets `periodic:*` campaign cells stand in for the §3.2
    /// analytic machinery.
    #[test]
    fn engine_replay_matches_analytic_unrolling(
        apps in arb_periodic_apps(),
        period_factor in 1.0f64..4.0,
        congestion_insertion in any::<bool>(),
    ) {
        let heuristic = if congestion_insertion {
            InsertionHeuristic::Congestion
        } else {
            InsertionHeuristic::Throughput
        };
        let platform = Platform::new("prop", 4_000, Bw::gib_per_sec(0.05),
                                     Bw::gib_per_sec(10.0));
        let t0: Time = apps.iter().map(|a| a.span(&platform)).fold(Time::ZERO, Time::max);
        let schedule = build_schedule(&platform, &apps, t0 * period_factor, heuristic);
        // Replay is only defined when everyone is scheduled (a starved
        // application would never be granted bandwidth — the registry
        // rejects such schedules at build time).
        if schedule.plans.iter().any(|p| p.n_per() == 0) {
            return Ok(());
        }
        let periods = 3;
        let replay = replay_apps(&schedule, periods);
        let mut policy = TimetablePolicy::new(schedule.clone());
        let out = simulate(&platform, &replay, &mut policy, &SimConfig::default())
            .map_err(|e| TestCaseError::fail(format!("replay failed: {e}")))?;
        let expected = unroll_report(&schedule, &platform, periods);
        for (got, want) in out.report.per_app.iter().zip(expected.per_app.iter()) {
            prop_assert_eq!(got.id, want.id);
            prop_assert!(
                got.finish.approx_eq(want.finish),
                "{}: finish {} vs analytic {}", got.id, got.finish, want.finish
            );
            prop_assert!(
                (got.rho_tilde - want.rho_tilde).abs() < 1e-6,
                "{}: rho_tilde {} vs analytic {}", got.id, got.rho_tilde, want.rho_tilde
            );
        }
        prop_assert!((out.report.sys_efficiency - expected.sys_efficiency).abs() < 1e-6);
        prop_assert!(
            expected.dilation.is_infinite()
                || (out.report.dilation - expected.dilation).abs() < 1e-6
        );
    }
}

/// Period search dominates single-period construction on its objective.
#[test]
fn period_search_dominates_fixed_period() {
    let platform = Platform::intrepid();
    let apps: Vec<PeriodicAppSpec> = congested_moment(&platform, 3)
        .iter()
        .map(|a| PeriodicAppSpec::from_app(a).unwrap())
        .collect();
    let t0: Time = apps
        .iter()
        .map(|a| a.span(&platform))
        .fold(Time::ZERO, Time::max);
    let single = build_schedule(&platform, &apps, t0, InsertionHeuristic::Congestion)
        .steady_state(&platform);
    let searched = PeriodSearch::new(PeriodicObjective::Dilation)
        .with_epsilon(0.05)
        .run(&platform, &apps, InsertionHeuristic::Congestion)
        .unwrap();
    assert!(
        searched.report.dilation <= single.dilation + 1e-9,
        "search {} vs single-period {}",
        searched.report.dilation,
        single.dilation
    );
}

/// Theorem 1 end-to-end: a feasible 3-Partition instance maps to a
/// scheduling instance whose proof schedule reaches Dilation 1 and
/// SysEfficiency (n−1)/n, and the partition can be recovered from it;
/// the scheduling instance is also digestible by the general periodic
/// machinery (valid schedules, even if heuristics need a longer period).
#[test]
fn theorem1_reduction_end_to_end() {
    let instance = ThreePartition::new(12, vec![4, 4, 4, 5, 4, 3, 6, 4, 2, 7, 3, 2]).unwrap();
    let solution = instance.brute_force().expect("feasible");
    let proof = instance.schedule_from_partition(&solution);
    assert_eq!(proof.verify().unwrap(), 1.0);
    assert!((proof.sys_efficiency() - 0.75).abs() < 1e-12);
    let recovered = proof.extract_partition().unwrap();
    for triplet in &recovered {
        let sum: u64 = triplet.iter().map(|&k| instance.items()[k]).sum();
        assert_eq!(sum, instance.target());
    }

    // The reduction's scheduling instance works in the general machinery.
    let (platform, apps) = instance.to_scheduling_instance(Bw::gib_per_sec(0.1));
    let t0: Time = apps
        .iter()
        .map(|a| a.span(&platform))
        .fold(Time::ZERO, Time::max);
    for heuristic in [
        InsertionHeuristic::Throughput,
        InsertionHeuristic::Congestion,
    ] {
        let schedule = build_schedule(&platform, &apps, t0 * 3.0, heuristic);
        schedule.validate(&platform).unwrap();
    }
}

/// An infeasible 3-Partition instance has no brute-force certificate —
/// and hence no proof schedule can be constructed from one.
#[test]
fn theorem1_infeasible_instance() {
    let instance = ThreePartition::new(20, vec![10, 10, 10, 4, 3, 3]).unwrap();
    assert!(instance.brute_force().is_none());
}

/// FNV-1a, 64-bit: a dependency-free digest of a search's output bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Every bit of one search outcome: the period, the candidate count,
    /// each plan's id and instances, and the steady-state report.
    fn result(&mut self, result: Option<&SearchResult>) {
        let Some(r) = result else {
            self.u64(0);
            return;
        };
        self.u64(1);
        self.f64(r.schedule.period.as_secs());
        self.u64(r.candidates_tried as u64);
        for plan in &r.schedule.plans {
            self.u64(plan.app.0 as u64);
            self.u64(plan.instances.len() as u64);
            for inst in &plan.instances {
                self.u64(inst.index as u64);
                self.f64(inst.compute_start.as_secs());
                self.f64(inst.compute_end.as_secs());
                self.f64(inst.io_start.as_secs());
                self.f64(inst.io_end.as_secs());
                self.f64(inst.io_bw.get());
            }
        }
        let report = &r.report;
        self.f64(report.sys_efficiency);
        self.f64(report.upper_limit);
        self.f64(report.dilation);
        for app in &report.per_app {
            self.u64(app.app.0 as u64);
            self.u64(app.procs);
            self.u64(app.n_per as u64);
            self.f64(app.rho);
            self.f64(app.rho_tilde);
        }
    }
}

/// Hex digest of `run` followed by `run_complete` on one roster.
fn search_digest(
    search: &PeriodSearch,
    platform: &Platform,
    apps: &[PeriodicAppSpec],
    heuristic: InsertionHeuristic,
) -> String {
    let mut h = Fnv::new();
    h.result(search.run(platform, apps, heuristic).as_ref());
    h.result(search.run_complete(platform, apps, heuristic).as_ref());
    format!("{:016x}", h.0)
}

fn periodic_specs(apps: &[iosched_model::AppSpec]) -> Vec<PeriodicAppSpec> {
    apps.iter()
        .map(|a| PeriodicAppSpec::from_app(a).unwrap())
        .collect()
}

/// The 120-application roster of `examples/campaign_stream.json`'s first
/// block, with its congested-moment template frozen to the roster it
/// generates (as the load-sweep benchmark does), so the seed binds only
/// the arrival process.
fn stream_roster(platform: &Platform) -> Vec<PeriodicAppSpec> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_stream.json");
    let text = std::fs::read_to_string(path).expect("examples/campaign_stream.json is checked in");
    let mut spec = CampaignSpec::from_json(&text).expect("example parses");
    if let WorkloadSpec::Stream { template, .. } = &mut spec.workloads[0] {
        let roster = template.materialize(platform).unwrap();
        **template = WorkloadSpec::Explicit(roster);
    }
    let apps = spec.bound_workload(0, 0).materialize(platform).unwrap();
    assert_eq!(apps.len(), 120);
    periodic_specs(&apps)
}

/// The period search's output, pinned bit for bit: any change to the
/// insertion heuristics, the builder, the bandwidth profile or the
/// search loop that moves one instance, one period or one report float
/// shows up here. Digests cover `run` and `run_complete` together.
#[test]
fn period_search_output_matches_recorded_digests() {
    const GOLDEN: &[(&str, &str)] = &[
        ("fig4", "5d4096e627a04bfd"),
        ("moment0/cong/dilation", "d7dc726f7ed56cfd"),
        ("moment0/cong/syseff", "4d99ed71d8b930d5"),
        ("moment0/throu/dilation", "d8a09a6afd2b131d"),
        ("moment0/throu/syseff", "fc82a8c1be1aa727"),
        ("moment1/cong/dilation", "4fa87b30b742f905"),
        ("moment1/cong/syseff", "4fa87b30b742f905"),
        ("moment1/throu/dilation", "38346298bf80ca21"),
        ("moment1/throu/syseff", "89be9d25f467c0b5"),
        ("moment2/cong/dilation", "0b166c3215e15b09"),
        ("moment2/cong/syseff", "3bc6f2c59bd61741"),
        ("moment2/throu/dilation", "da8ee33a89335f34"),
        ("moment2/throu/syseff", "9cfc00e90c115109"),
        ("moment3/cong/dilation", "397522e1f4ca1625"),
        ("moment3/cong/syseff", "64a2eeb0e36e77d5"),
        ("moment3/throu/dilation", "2fa1eb56c83a3185"),
        ("moment3/throu/syseff", "88ccdd801d38a5a3"),
        ("moment4/cong/dilation", "1c648f8f7faee2f9"),
        ("moment4/cong/syseff", "1c648f8f7faee2f9"),
        ("moment4/throu/dilation", "f1d6b48b0cd07005"),
        ("moment4/throu/syseff", "062ec8e1da38c7a6"),
        ("moment5/cong/dilation", "ff4537bf7753e64d"),
        ("moment5/cong/syseff", "439361ac84edf825"),
        ("moment5/throu/dilation", "489818022ef8e2cd"),
        ("moment5/throu/syseff", "760d35dfb34c86d5"),
        ("moment6/cong/dilation", "e69fa440f8183d75"),
        ("moment6/cong/syseff", "c925405c4455d9b0"),
        ("moment6/throu/dilation", "c099758fd16fdef5"),
        ("moment6/throu/syseff", "e6b2270d116ee40a"),
        ("moment7/cong/dilation", "f04a8648dd39c18d"),
        ("moment7/cong/syseff", "6940bbbea4847225"),
        ("moment7/throu/dilation", "e5fec5a951f6f3c8"),
        ("moment7/throu/syseff", "6457f51bd67a756a"),
        ("stream120/cong/tmax=32", "9c1f6b7ce7bbf211"),
        ("stream120/throu/tmax=32", "f32b7e904a05e5ee"),
        ("moment0/cong/dilation/eps=0.01", "4f37d591256f8931"),
    ];
    let mut got: Vec<(String, String)> = Vec::new();

    let fig4 = fig04::periodic_factory();
    got.push((
        "fig4".into(),
        search_digest(
            &fig4.search().unwrap(),
            &fig04::paper_platform(),
            &fig04::paper_apps(),
            fig4.heuristic,
        ),
    ));

    let intrepid = Platform::intrepid();
    let heuristics = [
        ("cong", InsertionHeuristic::Congestion),
        ("throu", InsertionHeuristic::Throughput),
    ];
    let objectives = [
        ("dilation", PeriodicObjective::Dilation),
        ("syseff", PeriodicObjective::SysEfficiency),
    ];
    for seed in 0..8 {
        let apps = periodic_specs(&congested_moment(&intrepid, seed));
        for (h_name, heuristic) in heuristics {
            for (o_name, objective) in objectives {
                got.push((
                    format!("moment{seed}/{h_name}/{o_name}"),
                    search_digest(&PeriodSearch::new(objective), &intrepid, &apps, heuristic),
                ));
            }
        }
    }

    let stream = stream_roster(&intrepid);
    for (h_name, heuristic) in heuristics {
        let search =
            PeriodSearch::new(PeriodicFactory::paired_objective(heuristic)).with_max_factor(32.0);
        got.push((
            format!("stream120/{h_name}/tmax=32"),
            search_digest(&search, &intrepid, &stream, heuristic),
        ));
    }

    let fine = PeriodSearch::new(PeriodicObjective::Dilation).with_epsilon(0.01);
    let moment = periodic_specs(&congested_moment(&intrepid, 0));
    got.push((
        "moment0/cong/dilation/eps=0.01".into(),
        search_digest(&fine, &intrepid, &moment, InsertionHeuristic::Congestion),
    ));

    let want: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|&(l, d)| (l.to_string(), d.to_string()))
        .collect();
    assert_eq!(
        got, want,
        "period search output drifted from the recorded digests"
    );
}

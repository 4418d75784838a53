//! End-to-end checks of the paper's headline claims, run on fixed seeds
//! across the whole stack (workload generator → policies → simulator →
//! objectives). Each test names the claim it guards.

use iosched_core::baselines::{native_platform, FairShare};
use iosched_core::heuristics::{MaxSysEff, MinDilation, MinMax, Priority};
use iosched_model::{stats, AppSpec, Bytes, Platform, Time};
use iosched_sim::{simulate, SimConfig};
use iosched_workload::congestion::{congested_moment, intrepid_cases};
use iosched_workload::sensibility;
use iosched_workload::MixConfig;

const CASES: usize = 10;

fn mean_over_cases<F: FnMut(&[iosched_model::AppSpec]) -> (f64, f64)>(
    platform: &Platform,
    mut f: F,
) -> (f64, f64) {
    let mut effs = Vec::new();
    let mut dils = Vec::new();
    for &seed in intrepid_cases().iter().take(CASES) {
        let apps = congested_moment(platform, seed);
        let (e, d) = f(&apps);
        effs.push(e);
        dils.push(d);
    }
    (stats::mean(&effs), stats::mean(&dils))
}

/// Claim (abstract): "congestion … showing in some cases a decrease in
/// I/O throughput of 67 %".
#[test]
fn claim_congestion_costs_up_to_two_thirds_of_io_throughput() {
    let platform = native_platform(Platform::intrepid());
    let mut worst: f64 = 0.0;
    for &seed in intrepid_cases().iter().take(CASES) {
        let apps = congested_moment(&platform, seed);
        let out = simulate(&platform, &apps, &mut FairShare, &SimConfig::default()).unwrap();
        for o in &out.report.per_app {
            worst = worst.max(o.io_throughput_decrease());
        }
    }
    assert!(
        worst > 0.5,
        "worst-case throughput decrease {worst:.2} below the paper's ~0.67 band"
    );
}

/// Claim (§1): "our global I/O scheduler … can increase the overall
/// system throughput up to 56 %" — we check a sizable improvement of
/// MaxSysEff over the uncoordinated run without burst buffers.
#[test]
fn claim_global_scheduler_increases_system_throughput() {
    let platform = native_platform(Platform::intrepid());
    let (ours, _) = mean_over_cases(&platform, |apps| {
        let out = simulate(&platform, apps, &mut MaxSysEff, &SimConfig::default()).unwrap();
        (out.report.sys_efficiency, out.report.dilation)
    });
    let (native, _) = mean_over_cases(&platform, |apps| {
        let out = simulate(&platform, apps, &mut FairShare, &SimConfig::default()).unwrap();
        (out.report.sys_efficiency, out.report.dilation)
    });
    let gain = ours / native - 1.0;
    assert!(
        gain > 0.10,
        "MaxSysEff should clearly beat uncoordinated access: gain {gain:.2}"
    );
}

/// Claim (§4.4, Tables 1–2): "without burst-buffers, our heuristics have
/// comparable results with those of Intrepid or Mira with burst buffers".
#[test]
fn claim_heuristics_without_bb_match_native_with_bb() {
    for base in [Platform::intrepid(), Platform::mira()] {
        let platform = native_platform(base);
        let (ours, ours_dil) = mean_over_cases(&platform, |apps| {
            let out = simulate(&platform, apps, &mut MaxSysEff, &SimConfig::default()).unwrap();
            (out.report.sys_efficiency, out.report.dilation)
        });
        let (native, native_dil) = mean_over_cases(&platform, |apps| {
            let bb = SimConfig {
                use_burst_buffer: true,
                ..SimConfig::default()
            };
            let out = simulate(&platform, apps, &mut FairShare, &bb).unwrap();
            (out.report.sys_efficiency, out.report.dilation)
        });
        assert!(
            ours >= native - 0.01,
            "{}: MaxSysEff w/o BB {ours:.3} vs native w/ BB {native:.3}",
            platform.name
        );
        // And MinDilation improves fairness over the native run.
        let (_, md_dil) = mean_over_cases(&platform, |apps| {
            let out = simulate(&platform, apps, &mut MinDilation, &SimConfig::default()).unwrap();
            (out.report.sys_efficiency, out.report.dilation)
        });
        assert!(
            md_dil <= native_dil + 0.05,
            "{}: MinDilation dilation {md_dil:.2} vs native {native_dil:.2}",
            platform.name
        );
        let _ = ours_dil;
    }
}

/// Claim (§4.2/Tables): MinDilation and MaxSysEff are complementary —
/// each wins its own objective — and MinMax-γ interpolates monotonically.
#[test]
fn claim_heuristics_are_complementary_and_minmax_interpolates() {
    let platform = native_platform(Platform::intrepid());
    let run_with = |gamma: Option<f64>| {
        mean_over_cases(&platform, |apps| {
            let report = match gamma {
                None => unreachable!(),
                Some(g) => {
                    let mut p = MinMax::new(g);
                    simulate(&platform, apps, &mut p, &SimConfig::default())
                        .unwrap()
                        .report
                }
            };
            (report.sys_efficiency, report.dilation)
        })
    };
    // γ = 0 ≡ MaxSysEff … γ = 1 ≡ MinDilation.
    let gammas = [0.0, 0.25, 0.5, 0.75, 1.0];
    let results: Vec<(f64, f64)> = gammas.iter().map(|&g| run_with(Some(g))).collect();
    // SysEfficiency decreases (within noise) as γ grows…
    assert!(
        results[0].0 >= results[4].0 - 0.01,
        "syseff endpoints: {:?}",
        results
    );
    // …and Dilation decreases as γ grows.
    assert!(
        results[4].1 <= results[0].1 + 0.05,
        "dilation endpoints: {:?}",
        results
    );
}

/// Claim (§4.2): the Priority variants are "most of the time, less
/// efficient than the original versions", but the difference is small.
#[test]
fn claim_priority_costs_a_little() {
    let platform = native_platform(Platform::intrepid());
    let (plain, _) = mean_over_cases(&platform, |apps| {
        let out = simulate(&platform, apps, &mut MaxSysEff, &SimConfig::default()).unwrap();
        (out.report.sys_efficiency, out.report.dilation)
    });
    let (prio, _) = mean_over_cases(&platform, |apps| {
        let mut p = Priority::new(MaxSysEff);
        let out = simulate(&platform, apps, &mut p, &SimConfig::default()).unwrap();
        (out.report.sys_efficiency, out.report.dilation)
    });
    assert!(
        prio <= plain + 0.005,
        "priority ({prio:.3}) should not beat plain ({plain:.3})"
    );
    assert!(
        prio >= plain - 0.15,
        "priority cost implausibly high: {prio:.3} vs {plain:.3}"
    );
}

/// Claim (§4.3, Fig. 7): sensibility up to 30 % "has almost no impact".
#[test]
fn claim_sensibility_has_almost_no_impact() {
    let platform = Platform::intrepid();
    let mix = MixConfig::fig6b();
    let mut base_eff = Vec::new();
    let mut pert_eff = Vec::new();
    for seed in 0..6u64 {
        let periodic = mix.generate(&platform, seed);
        let perturbed = sensibility::perturb(&periodic, 0.30, 0.30, seed ^ 99);
        let a = simulate(
            &platform,
            &periodic,
            &mut MinDilation,
            &SimConfig::default(),
        )
        .unwrap();
        let b = simulate(
            &platform,
            &perturbed,
            &mut MinDilation,
            &SimConfig::default(),
        )
        .unwrap();
        base_eff.push(a.report.sys_efficiency);
        pert_eff.push(b.report.sys_efficiency);
    }
    let drift = (stats::mean(&base_eff) - stats::mean(&pert_eff)).abs();
    assert!(
        drift < 0.05,
        "30 % sensibility moved mean SysEfficiency by {drift:.3}"
    );
}

/// Claim (Fig. 16): MaxSysEff sacrifices small applications for big ones;
/// MinDilation keeps the worst-off application better off.
#[test]
fn claim_fig16_fairness_profile() {
    let platform = native_platform(Platform::vesta());
    // 512/256/256/32-shaped scenario in the fluid simulator.
    let apps: Vec<iosched_model::AppSpec> = [512u64, 256, 256, 32]
        .iter()
        .enumerate()
        .map(|(i, &nodes)| {
            iosched_model::AppSpec::periodic(
                i,
                iosched_model::Time::ZERO,
                nodes,
                iosched_model::Time::secs(20.0),
                platform.app_max_bw(nodes) * iosched_model::Time::secs(8.0),
                6,
            )
        })
        .collect();
    let ms = simulate(&platform, &apps, &mut MaxSysEff, &SimConfig::default()).unwrap();
    let md = simulate(&platform, &apps, &mut MinDilation, &SimConfig::default()).unwrap();
    let dil = |r: &iosched_model::ObjectiveReport, i: usize| r.per_app[i].dilation();
    // Under MaxSysEff the 32-node app fares worst.
    let worst_ms = (0..4).max_by(|&a, &b| dil(&ms.report, a).total_cmp(&dil(&ms.report, b)));
    assert_eq!(
        worst_ms,
        Some(3),
        "MaxSysEff should sacrifice the 32-node app"
    );
    // MinDilation's max dilation beats MaxSysEff's.
    assert!(
        md.report.dilation <= ms.report.dilation + 1e-9,
        "MinDilation {} vs MaxSysEff {}",
        md.report.dilation,
        ms.report.dilation
    );
}

/// Sustained congestion: aggregate I/O demand ≈ 1.9× the PFS over a
/// window long enough that the burst buffer's one-off absorption is a
/// small fraction of the total volume (the regime of Tables 1–2).
fn congested_apps(n: usize) -> Vec<AppSpec> {
    (0..n)
        .map(|i| {
            AppSpec::periodic(
                i,
                Time::secs(i as f64 * 3.0),
                2_000,
                Time::secs(30.0),
                Bytes::gib(600.0),
                12,
            )
        })
        .collect()
}

#[test]
fn native_platform_carries_penalty_and_bb() {
    let p = native_platform(Platform::intrepid());
    assert!(p.interference.is_penalizing());
    assert!(p.burst_buffer.is_some());
    p.validate().unwrap();
}

#[test]
fn burst_buffers_help_the_native_scheduler() {
    let p = native_platform(Platform::intrepid());
    let apps = congested_apps(6);
    let config = |use_burst_buffer| SimConfig {
        use_burst_buffer,
        ..SimConfig::default()
    };
    let with = simulate(&p, &apps, &mut FairShare, &config(true)).unwrap();
    let without = simulate(&p, &apps, &mut FairShare, &config(false)).unwrap();
    assert!(
        with.report.sys_efficiency > without.report.sys_efficiency,
        "BB must improve the congested native run: {} vs {}",
        with.report.sys_efficiency,
        without.report.sys_efficiency
    );
}

#[test]
fn headline_claim_heuristics_without_bb_beat_native_with_bb() {
    // The paper's striking result (§1, §4.4): the global scheduler
    // *without* burst buffers outperforms the native scheduler *with*
    // them on congested moments.
    let p = native_platform(Platform::intrepid());
    let apps = congested_apps(8);
    let bb = SimConfig {
        use_burst_buffer: true,
        ..SimConfig::default()
    };
    let native = simulate(&p, &apps, &mut FairShare, &bb).unwrap();
    let ours = simulate(&p, &apps, &mut MaxSysEff, &SimConfig::default()).unwrap();
    assert!(
        ours.report.sys_efficiency >= native.report.sys_efficiency - 0.02,
        "MaxSysEff w/o BB ({:.3}) should at least match native w/ BB ({:.3})",
        ours.report.sys_efficiency,
        native.report.sys_efficiency
    );
}

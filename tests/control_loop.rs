//! Acceptance tests for the telemetry + feedback-control subsystem:
//! under a congestion-spike campaign (external-load storms over
//! congested moments, ≥ 3 seeds) `control:pi` must achieve strictly
//! better max-dilation than uncoordinated FairShare while keeping system
//! efficiency within 5 %, and it beats the open-loop periodic schedule
//! squeezed by a storm the timetable cannot observe.
//!
//! Each claim also runs `control:pi`'s ablation twin,
//! `control:pi:kp=0:ki=0`, which holds the PI output at 1: the same
//! policy with the feedback loop removed. The twins show what the loop
//! itself earns. On the storm campaign the twin's cell is bit-identical
//! to `control:pi`'s, so the wins there come from the rest of the policy,
//! not from the loop.

use hpc_io_sched::model::stats::Summary;
use hpc_io_sched::sim::{simulate, SimConfig};
use hpc_io_sched::workload::congestion::congested_moment;
use iosched_bench::campaign::{run_campaign, CampaignResult, CellSummary, PlatformSpec};
use iosched_bench::experiments::control;
use iosched_bench::runner::ScenarioRunner;
use iosched_bench::PolicySpec;
use std::sync::OnceLock;

/// `control:pi` with the feedback loop removed: zero gains hold the PI
/// output at 1.
const ABLATION: &str = "control:pi:kp=0:ki=0";

/// The 25-run storm campaign is deterministic; run it once and share it
/// across the assertions below.
fn storm_result() -> &'static CampaignResult {
    static RESULT: OnceLock<CampaignResult> = OnceLock::new();
    RESULT.get_or_init(|| {
        let spec = control::campaign(control::STORM_SEEDS);
        assert!(spec.seeds.len() >= 3, "acceptance bar needs >= 3 seeds");
        run_campaign(&spec, &ScenarioRunner::new()).expect("storm campaign runs")
    })
}

fn cell<'a>(result: &'a CampaignResult, policy: &str) -> &'a CellSummary {
    result
        .cell("congestion", policy)
        .unwrap_or_else(|| panic!("{policy} cell present"))
}

#[test]
fn control_pi_beats_fairshare_on_max_dilation_within_the_syseff_budget() {
    let result = storm_result();
    let control_cell = cell(result, "control:pi");
    let fairshare = cell(result, "fairshare");
    assert_eq!(control_cell.runs, control::STORM_SEEDS);
    // Strictly better max-dilation (the per-run Dilation objective *is*
    // the max over applications), averaged over the seeds…
    assert!(
        control_cell.dilation.mean < fairshare.dilation.mean,
        "control:pi dilation {} must beat fairshare {}",
        control_cell.dilation.mean,
        fairshare.dilation.mean
    );
    // …and in the worst seed too.
    assert!(
        control_cell.dilation.max < fairshare.dilation.max,
        "control:pi worst-seed dilation {} vs fairshare {}",
        control_cell.dilation.max,
        fairshare.dilation.max
    );
    // System efficiency within 5 % of FairShare's.
    assert!(
        control_cell.sys_efficiency.mean >= fairshare.sys_efficiency.mean * 0.95,
        "control:pi SysEff {} fell more than 5% below fairshare {}",
        control_cell.sys_efficiency.mean,
        fairshare.sys_efficiency.mean
    );
}

#[test]
fn open_loop_periodic_schedule_collapses_under_the_storm_it_cannot_see() {
    let result = storm_result();
    let control_cell = cell(result, "control:pi");
    let periodic = cell(result, "periodic:cong");
    // The timetable was searched for the full PFS bandwidth; the storm
    // squeezes its reservations and the replay dilates far past the
    // closed loop.
    assert!(
        control_cell.dilation.mean < periodic.dilation.mean,
        "closed loop {} must beat the blind timetable {}",
        control_cell.dilation.mean,
        periodic.dilation.mean
    );
    assert!(control_cell.sys_efficiency.mean > periodic.sys_efficiency.mean);
}

/// FNV-1a, 64-bit: a dependency-free digest of the campaign's output
/// bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Every bit of one summary, reservoir included; an absent one
    /// hashes as a 0 tag.
    fn summary(&mut self, s: Option<&Summary>) {
        let Some(s) = s else {
            self.u64(0);
            return;
        };
        self.u64(1);
        self.u64(s.n as u64);
        for v in [s.mean, s.std, s.min, s.max, s.median, s.p95, s.p99] {
            self.f64(v);
        }
        self.u64(s.reservoir.len() as u64);
        for &v in &s.reservoir {
            self.f64(v);
        }
    }
}

/// The storm campaign, pinned bit for bit: every cell's labels, run
/// count and summaries. This is the one pinned run where the timetable's
/// storm squeeze and `control:pi` under a swinging capacity decide, so
/// any change to either that moves one grant shows up here. The digest
/// depends on the platform's libm through `control:pi`'s `exp` (its
/// signal smoothing), as the benchmark's result digests do.
#[test]
fn storm_campaign_matches_its_recorded_digest() {
    let mut h = Fnv::new();
    for c in &storm_result().cells {
        for label in [&c.platform, &c.workload, &c.policy] {
            h.u64(label.len() as u64);
            h.bytes(label.as_bytes());
        }
        h.u64(c.runs as u64);
        for s in [
            &c.sys_efficiency,
            &c.dilation,
            &c.upper_limit,
            &c.makespan_secs,
        ] {
            h.summary(Some(s));
        }
        for s in [&c.utilization, &c.queue, &c.stretch] {
            h.summary(s.as_ref());
        }
    }
    assert_eq!(format!("{:016x}", h.0), "1057fd06f9dac322");
}

#[test]
fn storm_cells_carry_the_telemetry_aggregate() {
    let result = storm_result();
    for c in &result.cells {
        let utilization: &Summary = c
            .utilization
            .as_ref()
            .unwrap_or_else(|| panic!("{}: telemetry aggregate missing", c.policy));
        assert_eq!(utilization.n, c.runs);
        assert!(
            utilization.mean > 0.0 && utilization.mean <= 1.0 + 1e-9,
            "{}: mean utilization {}",
            c.policy,
            utilization.mean
        );
        assert!(utilization.p99 >= utilization.p95);
    }
}

/// The ablation twin on the storm campaign, built as its own one-policy
/// spec (the checked-in campaign and its digest stay as they are): its
/// cell is bit-identical to `control:pi`'s in every summary, so the loop
/// changes no outcome of these runs.
#[test]
fn storm_campaign_control_pi_cell_equals_its_ablation_twin() {
    let spec = iosched_bench::CampaignSpec {
        policies: vec![PolicySpec::parse(ABLATION).unwrap()],
        ..control::campaign(control::STORM_SEEDS)
    };
    let twin_result = run_campaign(&spec, &ScenarioRunner::new()).expect("twin campaign runs");
    let twin = cell(&twin_result, ABLATION);
    let control_cell = cell(storm_result(), "control:pi");
    assert_eq!(twin.runs, control_cell.runs);
    let bits = |s: &Summary| {
        let mut bits = vec![s.n as u64];
        bits.extend(
            [s.mean, s.std, s.min, s.max, s.median, s.p95, s.p99]
                .iter()
                .chain(&s.reservoir)
                .map(|v| v.to_bits()),
        );
        bits
    };
    let summaries = |c: &CellSummary| {
        [
            Some(&c.sys_efficiency),
            Some(&c.dilation),
            Some(&c.upper_limit),
            Some(&c.makespan_secs),
            c.utilization.as_ref(),
            c.queue.as_ref(),
            c.stretch.as_ref(),
        ]
        .map(|s| s.map(bits))
    };
    assert_eq!(summaries(twin), summaries(control_cell));
}

/// Native Intrepid (the Fig. 1 disk-locality penalty) under the storm:
/// FairShare's uncoordinated streams lose delivered bandwidth to the
/// penalty, and `control:pi` beats it on both objectives. The PI loop
/// does not earn that win: it throttles at few decisions here, and its
/// ablation twin lands within 0.1 % of `control:pi` on both means
/// (slightly lower SysEfficiency and slightly lower dilation, as measured
/// when the twin was added). `mindilation`, which has no loop, token
/// buckets or spill pass, beats `control:pi` on both objectives.
#[test]
fn control_pi_sheds_streams_under_interference_and_wins_both_objectives() {
    let platform = PlatformSpec::Native("intrepid".into()).build().unwrap();
    let storm = SimConfig {
        external_load: Some(control::spike_load()),
        telemetry: true,
        ..SimConfig::default()
    };
    let roster = ["control:pi", "fairshare", ABLATION, "mindilation"];
    let mut effs = [(); 4].map(|()| Vec::new());
    let mut dils = [(); 4].map(|()| Vec::new());
    for seed in 0..3 {
        let apps = congested_moment(&platform, seed);
        for (k, name) in roster.iter().enumerate() {
            let mut policy = PolicySpec::parse(name)
                .unwrap()
                .build(&platform, &apps)
                .unwrap();
            let out = simulate(&platform, &apps, policy.as_mut(), &storm).unwrap();
            effs[k].push(out.report.sys_efficiency);
            dils[k].push(out.report.dilation);
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let [pi_eff, fair_eff, twin_eff, mindil_eff] = effs.each_ref().map(|xs| mean(xs));
    let [pi_dil, fair_dil, twin_dil, mindil_dil] = dils.each_ref().map(|xs| mean(xs));
    assert!(
        pi_dil < fair_dil,
        "control:pi dilation {pi_dil} vs fairshare {fair_dil}"
    );
    assert!(
        pi_eff > fair_eff,
        "control:pi SysEff {pi_eff} vs fairshare {fair_eff}"
    );
    // The twin: the loop moves neither mean by as much as 0.1 %.
    assert!(
        (pi_eff - twin_eff).abs() < 1e-3 * twin_eff && (pi_dil - twin_dil).abs() < 1e-3 * twin_dil,
        "control:pi {pi_eff}/{pi_dil} vs its ablation {twin_eff}/{twin_dil}"
    );
    assert!(
        twin_eff < pi_eff && twin_dil < pi_dil,
        "control:pi {pi_eff}/{pi_dil} vs its ablation {twin_eff}/{twin_dil}"
    );
    // …and the loop-free heuristic wins both objectives.
    assert!(
        mindil_eff > pi_eff && mindil_dil < pi_dil,
        "mindilation {mindil_eff}/{mindil_dil} vs control:pi {pi_eff}/{pi_dil}"
    );
}

//! Acceptance tests for the telemetry + feedback-control subsystem:
//! under a congestion-spike campaign (external-load storms over
//! congested moments, ≥ 3 seeds) the closed-loop `control:pi` policy
//! must achieve strictly better max-dilation than uncoordinated
//! FairShare while keeping system efficiency within 5 % — and the
//! open-loop periodic schedule, squeezed by a storm it cannot observe,
//! shows why sensing matters.

use hpc_io_sched::core::control::ControlPolicy;
use hpc_io_sched::model::stats::Summary;
use hpc_io_sched::sim::{simulate, SimConfig};
use hpc_io_sched::workload::congestion::congested_moment;
use iosched_bench::campaign::{run_campaign, CampaignResult, CellSummary, PlatformSpec};
use iosched_bench::experiments::control;
use iosched_bench::runner::ScenarioRunner;
use std::sync::OnceLock;

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

/// The loop's distinctive regime: on an interference-penalizing platform
/// (native Intrepid, Fig. 1 disk-locality penalty) FairShare's
/// uncoordinated streams destroy delivered bandwidth, and the PI loop —
/// observing delivered utilization below its setpoint — sheds streams
/// until delivery recovers. Closed-loop wins on *both* objectives there.
#[test]
fn control_pi_sheds_streams_under_interference_and_wins_both_objectives() {
    let platform = PlatformSpec::Native("intrepid".into()).build().unwrap();
    let storm = SimConfig {
        external_load: Some(control::spike_load()),
        telemetry: true,
        ..SimConfig::default()
    };
    let mut effs = (Vec::new(), Vec::new());
    let mut dils = (Vec::new(), Vec::new());
    for seed in 0..3 {
        let apps = congested_moment(&platform, seed);
        let mut pi = ControlPolicy::pi_default();
        let closed = simulate(&platform, &apps, &mut pi, &storm).unwrap();
        let mut fairshare = hpc_io_sched::core::FairShare;
        let open = simulate(&platform, &apps, &mut fairshare, &storm).unwrap();
        effs.0.push(closed.report.sys_efficiency);
        effs.1.push(open.report.sys_efficiency);
        dils.0.push(closed.report.dilation);
        dils.1.push(open.report.dilation);
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(
        mean(&dils.0) < mean(&dils.1),
        "closed loop dilation {} vs fairshare {}",
        mean(&dils.0),
        mean(&dils.1)
    );
    assert!(
        mean(&effs.0) > mean(&effs.1),
        "closed loop SysEff {} vs fairshare {}",
        mean(&effs.0),
        mean(&effs.1)
    );
}

//! Pins for the engine's single admission lifecycle.
//!
//! A closed roster enters the engine through the same release-ordered
//! arrival queue as a stream or an open engine's offers, and every
//! inter-event interval is closed in one place, which feeds the
//! telemetry tap, the steady-state window and the trace segment from one
//! record. These tests pin what that design must preserve:
//!
//! * a closed roster's slot arena tracks concurrency, and its unreleased
//!   applications count as queued;
//! * every `BandwidthTrace` segment (start, end, capacity, grants,
//!   effective rates) of three runs that exercise the capacity sources —
//!   a burst buffer flipping between absorb and drain rates, an external
//!   load square wave, and a horizon halt — stays identical to the bit.

use iosched_core::heuristics::{MaxSysEff, MinDilation, RoundRobin};
use iosched_model::{AppSpec, Bw, Bytes, Interference, Platform, Time};
use iosched_sim::external_load::ExternalLoad;
use iosched_sim::{simulate, BandwidthTrace, SimConfig, Simulation};

fn platform() -> Platform {
    Platform::new("t", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0))
}

/// `n` periodic applications of `procs` processors released `gap`
/// seconds apart.
fn staggered(
    n: usize,
    procs: u64,
    gap: f64,
    work: f64,
    vol_gib: f64,
    count: usize,
) -> Vec<AppSpec> {
    (0..n)
        .map(|i| {
            AppSpec::periodic(
                i,
                Time::secs(i as f64 * gap),
                procs,
                Time::secs(work),
                Bytes::gib(vol_gib),
                count,
            )
        })
        .collect()
}

/// FNV-1a over the bit patterns of every segment field, in order, plus
/// the segment count: equal digests mean equal traces to the last ulp.
fn digest(trace: &BandwidthTrace) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for seg in &trace.segments {
        eat(seg.start.get().to_bits());
        eat(seg.end.get().to_bits());
        eat(seg.capacity.get().to_bits());
        for rates in [&seg.grants, &seg.effective] {
            eat(rates.len() as u64);
            for (id, bw) in rates {
                eat(id.0 as u64);
                eat(bw.get().to_bits());
            }
        }
    }
    (trace.segments.len(), hash)
}

fn traced(config: SimConfig) -> SimConfig {
    SimConfig {
        record_trace: true,
        ..config
    }
}

/// A closed roster whose applications never overlap runs in an arena
/// sized by its concurrency, and its unreleased applications wait in
/// the arrival queue.
#[test]
fn closed_roster_recycles_slots_and_queues_unreleased_apps() {
    let p = platform();
    let n = 200;
    // 5 processors each (Σβ = 1,000 fits the closed budget); 4 s of
    // compute then 1 s of I/O at the 0.5 GiB/s card limit, one
    // release every 6 s.
    let apps = staggered(n, 5, 6.0, 4.0, 0.5, 1);
    let config = SimConfig::default();
    let mut policy = MinDilation;
    let mut sim = Simulation::new(&p, &apps, &mut policy, &config).unwrap();
    assert_eq!(sim.admitted(), 1, "only the t = 0 release is admitted");
    assert_eq!(sim.queued(), n - 1, "the rest wait in the arrival queue");
    while !sim.is_finished() {
        sim.step().unwrap();
        assert_eq!(sim.admitted() + sim.queued(), n);
    }
    assert!(
        sim.runtimes().len() <= 4,
        "arena held {} slots for {} apps",
        sim.runtimes().len(),
        n
    );
    assert_eq!(sim.queued(), 0);
    assert_eq!(sim.finished_count(), n);
    let out = sim.into_outcome();
    assert_eq!(out.report.per_app.len(), n);
    assert!((out.report.dilation - 1.0).abs() < 1e-9, "no contention");
}

/// Burst buffer: the capacity alternates between the absorb bandwidth
/// and the PFS bandwidth as the buffer fills and drains.
#[test]
fn burst_buffer_trace_is_pinned() {
    let p = platform()
        .with_interference(Interference::default_penalty())
        .with_default_burst_buffer();
    let apps = staggered(4, 250, 5.0, 10.0, 200.0, 3);
    let out = simulate(
        &p,
        &apps,
        &mut MaxSysEff,
        &traced(SimConfig::with_burst_buffer()),
    )
    .unwrap();
    let trace = out.trace.unwrap();
    let capacities: std::collections::BTreeSet<u64> = trace
        .segments
        .iter()
        .map(|s| s.capacity.get().to_bits())
        .collect();
    assert!(
        capacities.len() > 1,
        "the buffer must throttle at least once"
    );
    assert_eq!(digest(&trace), (30, 8_093_249_111_594_264_860));
}

/// External load: the capacity follows the communication square wave.
#[test]
fn external_load_trace_is_pinned() {
    let p = platform();
    let config = SimConfig {
        external_load: Some(ExternalLoad {
            period: Time::secs(15.0),
            busy: Time::secs(6.0),
            fraction: 0.6,
        }),
        ..SimConfig::default()
    };
    let apps = staggered(5, 150, 3.0, 8.0, 30.0, 3);
    let out = simulate(&p, &apps, &mut MinDilation, &traced(config)).unwrap();
    let trace = out.trace.unwrap();
    trace.validate(&p, &|_| Some(150)).unwrap();
    assert_eq!(digest(&trace), (39, 9_426_870_049_607_597_835));
}

/// Horizon halt: the last segment is closed by the halt at the horizon,
/// not by an event.
#[test]
fn horizon_halted_trace_is_pinned() {
    let p = platform();
    let config = SimConfig {
        horizon: Some(Time::secs(47.5)),
        ..SimConfig::default()
    };
    let apps = staggered(6, 100, 4.0, 8.0, 20.0, 4);
    let out = simulate(&p, &apps, &mut RoundRobin, &traced(config)).unwrap();
    assert!(out.end_time.approx_eq(Time::secs(47.5)));
    let trace = out.trace.unwrap();
    trace.validate(&p, &|_| Some(100)).unwrap();
    assert!(trace.segments.last().unwrap().end.approx_eq(out.end_time));
    assert_eq!(digest(&trace), (22, 17_780_497_420_735_163_034));
}

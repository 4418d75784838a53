//! Allocation and rate bars, measured under a counting global allocator.
//!
//! The allocator's peak and the wall-clock rates are process-wide, so
//! parallel test threads would pollute them: every bar runs in the one
//! `#[ignore]`d test below, alone in this test binary. Run it in release
//! mode:
//!
//! ```text
//! cargo test --release --test perf_bars -- --ignored
//! ```
//!
//! Each bar sits far below what a 2-vCPU host measures, so only a
//! genuine regression trips it, not runner variance. Before a bar is
//! asserted, the runs it measures are checked bit-identical to their
//! reference: the memory shape may change, the simulation may not.

use iosched_bench::experiments::load_sweep::stream_10k;
use iosched_core::heuristics::MinDilation;
use iosched_core::registry::PolicyFactory;
use iosched_model::{AppSpec, Bytes, Platform, Time};
use iosched_serve::journal::{Journal, ServeSpec};
use iosched_serve::protocol::{parse_request, Request};
use iosched_serve::session::Session;
use iosched_sim::{simulate_stream, SimConfig, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// `System` wrapped with live-bytes and peak-live-bytes counters.
struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A measured phase: the live level and the clock at its start.
struct Phase {
    baseline: usize,
    started: Instant,
}

impl Phase {
    /// Reset the peak to the current live level and start the clock.
    fn start() -> Self {
        let baseline = LIVE.load(Ordering::Relaxed);
        PEAK.store(baseline, Ordering::Relaxed);
        Self {
            baseline,
            started: Instant::now(),
        }
    }

    /// Peak bytes above the phase baseline and elapsed seconds.
    fn end(self) -> (usize, f64) {
        let peak = PEAK.load(Ordering::Relaxed).saturating_sub(self.baseline);
        (peak, self.started.elapsed().as_secs_f64())
    }
}

#[test]
#[ignore = "process-wide allocation and timing bars; run alone in release mode"]
fn allocation_and_rate_bars() {
    stream_memory_and_throughput();
    let dir = std::env::temp_dir().join(format!("iosched-perf-bars-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    serve_admission(&dir);
    journal_load_memory(&dir);
    std::fs::remove_dir_all(&dir).expect("temp dir cleanup");
}

/// `stream_10k` two ways. Naive full materialization collects the whole
/// stream and keeps every application's outcome detail, as a closed
/// engine would have to. The lazy run pulls the stream on release,
/// recycles slots and keeps aggregates only, so its peak tracks the
/// ~20 concurrent applications instead of the 10,000 admitted. Bars: the
/// naive/lazy peak ratio is at least 10×, and the lazy run reaches at
/// least 1,000,000 events/s (it measures 1.5M–1.8M on a 2-vCPU host).
fn stream_memory_and_throughput() {
    let platform = Platform::intrepid();
    let spec = stream_10k();

    let phase = Phase::start();
    let apps: Vec<AppSpec> = spec
        .app_source(&platform)
        .expect("stream spec is valid")
        .collect();
    let naive = simulate_stream(
        &platform,
        apps.iter().cloned(),
        &mut MinDilation,
        &SimConfig::default(),
    )
    .expect("stream runs");
    drop(apps);
    let (naive_peak, _) = phase.end();

    let lean_config = SimConfig {
        per_app_detail: false,
        ..SimConfig::default()
    };
    let phase = Phase::start();
    let lean = simulate_stream(
        &platform,
        spec.app_source(&platform).expect("stream spec is valid"),
        &mut MinDilation,
        &lean_config,
    )
    .expect("stream runs");
    let (lean_peak, lean_secs) = phase.end();

    // The lazy engine is the same simulation: with the detail on it
    // matches the naive run to the bit, and without it only the
    // streaming SysEfficiency sum may differ in its last bits.
    let detailed = simulate_stream(
        &platform,
        spec.app_source(&platform).expect("stream spec is valid"),
        &mut MinDilation,
        &SimConfig::default(),
    )
    .expect("stream runs");
    assert_eq!(naive.events, detailed.events, "lazy run diverged");
    assert_eq!(
        naive.report.sys_efficiency.to_bits(),
        detailed.report.sys_efficiency.to_bits(),
        "lazy run diverged"
    );
    assert_eq!(naive.events, lean.events, "lean run diverged");
    assert!((naive.report.sys_efficiency - lean.report.sys_efficiency).abs() < 1e-12);
    assert_eq!(
        naive.report.dilation.to_bits(),
        lean.report.dilation.to_bits(),
        "lean run diverged"
    );

    let ratio = naive_peak as f64 / lean_peak.max(1) as f64;
    let events_per_sec = lean.events as f64 / lean_secs;
    println!(
        "stream_10k: naive peak +{naive_peak} B, lazy peak +{lean_peak} B ({ratio:.1}x), \
         lazy {events_per_sec:.0} events/s"
    );
    assert!(
        ratio >= 10.0,
        "bounded-memory bar missed: {ratio:.2}x < 10x"
    );
    assert!(
        events_per_sec >= 1_000_000.0,
        "events/s floor missed: {events_per_sec:.0} < 1,000,000"
    );
}

fn serve_spec() -> ServeSpec {
    ServeSpec {
        platform: Platform::intrepid(),
        policy: PolicyFactory::parse("maxsyseff").unwrap(),
        accel: 0.0,
        config: SimConfig {
            per_app_detail: false,
            ..SimConfig::default()
        },
    }
}

fn submit_line(k: usize, release: f64) -> String {
    format!(
        r#"{{"cmd":"submit","procs":{},"work":{},"vol":{},"count":2,"release":{}}}"#,
        128 << (k % 3),
        40.0 + (k % 7) as f64,
        192.0 + 32.0 * (k % 5) as f64,
        release,
    )
}

/// Parse a protocol submit line and admit it through the session: the
/// daemon's path from request to write-ahead journal flush.
fn admit(session: &mut Session<'_>, line: &str) {
    let Ok(Request::Submit {
        submission,
        release,
    }) = parse_request(line)
    else {
        panic!("submit line failed to parse: {line}");
    };
    session
        .submit(submission, release, Time::ZERO)
        .expect("accepted")
        .expect("journaled");
}

/// The serve daemon's admission path, measured on a `Session` (the
/// daemon's decision core) with the per-line journal flush included.
/// Bars: over 10,000 submissions, mean latency under 500 µs, p99 under
/// 5 ms and a burst rate over 5,000/s; over a 2,000-submission session
/// that drives the engine between submissions, a sustained rate over
/// 500/s and a peak allocation under 256 KiB per resident application.
/// The driven session must match `simulate_stream` over its own journal
/// to the bit.
fn serve_admission(dir: &Path) {
    let spec = serve_spec();

    const LAT_N: usize = 10_000;
    let mut policy = spec.policy.build_online(&spec.platform).unwrap();
    let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
    let journal = Journal::create(&dir.join("latency.jsonl"), &spec).unwrap();
    let mut session = Session::new(sim, journal, &[]).unwrap();
    let lines: Vec<String> = (0..LAT_N)
        .map(|k| submit_line(k, 10.0 + k as f64))
        .collect();
    let mut latencies_ns: Vec<u128> = Vec::with_capacity(LAT_N);
    let wall = Instant::now();
    for line in &lines {
        let t0 = Instant::now();
        admit(&mut session, line);
        latencies_ns.push(t0.elapsed().as_nanos());
    }
    let burst_rate = LAT_N as f64 / wall.elapsed().as_secs_f64();
    drop(session);
    latencies_ns.sort_unstable();
    let mean_us = latencies_ns.iter().sum::<u128>() as f64 / LAT_N as f64 / 1000.0;
    let p99_us = latencies_ns[LAT_N * 99 / 100] as f64 / 1000.0;

    const RUN_N: usize = 2_000;
    let path = dir.join("steady.jsonl");
    let phase = Phase::start();
    let mut policy = spec.policy.build_online(&spec.platform).unwrap();
    let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
    let journal = Journal::create(&path, &spec).unwrap();
    let mut session = Session::new(sim, journal, &[]).unwrap();
    let mut peak_resident = 0usize;
    let wall = Instant::now();
    for k in 0..RUN_N {
        // One arrival every 30 virtual seconds, each spanning several
        // arrivals' worth of work: a resident population forms and
        // retires continuously, the daemon's steady state under load.
        let release = 30.0 * (k + 1) as f64;
        admit(&mut session, &submit_line(k, release));
        session.advance(Time::secs(release)).expect("advance");
        peak_resident = peak_resident.max(session.status(Time::secs(release)).live);
    }
    let (outcome, accepted) = session.finish().expect("session completes");
    let sustained = RUN_N as f64 / wall.elapsed().as_secs_f64();
    let (peak_bytes, _) = phase.end();
    let per_resident = peak_bytes as f64 / peak_resident.max(1) as f64;

    let contents = Journal::load(&path).expect("journal loads");
    assert_eq!(contents.arrivals.len(), accepted);
    let mut policy = spec.policy.build_online(&spec.platform).unwrap();
    let reference = simulate_stream(
        &spec.platform,
        contents.arrivals.into_iter(),
        policy.as_mut(),
        &spec.config,
    )
    .expect("reference runs");
    assert_eq!(outcome.events, reference.events, "serve path diverged");
    assert_eq!(
        outcome.report.sys_efficiency.to_bits(),
        reference.report.sys_efficiency.to_bits(),
        "serve path diverged"
    );

    println!(
        "serve admission: mean {mean_us:.1} us, p99 {p99_us:.1} us, burst {burst_rate:.0}/s, \
         sustained {sustained:.0}/s, {:.1} KiB per resident app (peak {peak_resident} resident)",
        per_resident / 1024.0
    );
    assert!(
        mean_us < 500.0,
        "mean admission latency {mean_us:.1} us >= 500 us"
    );
    assert!(
        p99_us < 5_000.0,
        "p99 admission latency {p99_us:.1} us >= 5 ms"
    );
    assert!(
        burst_rate > 5_000.0,
        "burst admission rate {burst_rate:.0}/s <= 5000/s"
    );
    assert!(
        sustained > 500.0,
        "sustained admission rate {sustained:.0}/s <= 500/s"
    );
    assert!(
        per_resident < 256.0 * 1024.0,
        "per-resident-app peak allocation {per_resident:.0} B >= 256 KiB"
    );
}

/// A resume's `Journal::load` on a 20,000-arrival journal written by the
/// production writer, with arrival shapes like the daemon's benchmark
/// journal. It must return exactly the written arrivals. Bar: its peak
/// live allocation stays under 3× the file size. Converting each line as
/// it is parsed holds the file's text and the recovered arrivals (about
/// 2×); parsing every line before converting the first held all their
/// JSON trees as well (about 10×).
fn journal_load_memory(dir: &Path) {
    const N: usize = 20_000;
    let apps: Vec<AppSpec> = (0..N)
        .map(|k| {
            AppSpec::periodic(
                k,
                Time::secs(10.0 * (k + 1) as f64 + (k % 997) as f64 / 1000.0),
                64 << (k % 5),
                Time::secs(10.0 + (k * 37 % 9_000) as f64 / 100.0),
                Bytes::gib(1.0 + (k * 53 % 1_900) as f64 / 100.0),
                1 + k % 3,
            )
        })
        .collect();
    let path = dir.join("resume.jsonl");
    let mut journal = Journal::create(&path, &serve_spec()).unwrap();
    for app in &apps {
        journal.append(app).unwrap();
    }
    drop(journal);
    let file_bytes = std::fs::metadata(&path).unwrap().len() as f64;

    let phase = Phase::start();
    let contents = Journal::load(&path).expect("journal loads");
    let (peak_bytes, secs) = phase.end();
    assert!(contents.arrivals == apps, "load changed the arrivals");

    let ratio = peak_bytes as f64 / file_bytes;
    println!(
        "journal load: {N} arrivals, {:.1} MB file, peak +{peak_bytes} B ({ratio:.2}x the file), \
         {:.0} ms",
        file_bytes / 1e6,
        secs * 1e3
    );
    assert!(
        ratio < 3.0,
        "journal load peak allocation {ratio:.2}x the file size >= 3x"
    );
}

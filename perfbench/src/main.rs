//! The iosched benchmark: one workload per invocation, end-to-end
//! metrics untraced, per-layer metrics under `--trace 1`.
//!
//! ```text
//! perfbench --workload <closed_campaign|open_stream|load_sweep|serve_daemon>
//!           --seed N --seconds S --trace 0|1 [--iosched PATH]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! A human-readable table with sample counts goes to standard error.
//! See `README.md` next to this crate for the workloads and metrics.

mod campaign;
mod check;
mod host;
mod serve;
mod stats;
mod stream;
mod trace;
mod wrap;

use crate::trace::Tracer;
use crate::wrap::PolicyStats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Run length the inputs are sized for.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// The `iosched` binary of the same build (serve_daemon only).
    pub iosched: Option<PathBuf>,
}

/// The metric catalog: names, units and report order, read from
/// `BENCHMARK.json` at the repository root so the benchmark reports
/// exactly what the benchmark definition lists.
#[derive(Debug)]
pub struct Catalog {
    /// `end_to_end`: what an untraced run reports, `(name, unit)`.
    pub end_to_end: Vec<(String, String)>,
    /// `per_layer`: what a traced run reports, `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

impl Catalog {
    fn parse(text: &str) -> Result<Self, String> {
        let v = serde_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let m = v.as_map().ok_or("BENCHMARK.json is not an object")?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            let entries = serde::map_get(m, key)
                .as_seq()
                .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
            entries
                .iter()
                .map(|e| {
                    let field = |f: &str| {
                        e.as_map()
                            .and_then(|e| serde::map_get(e, f).as_str())
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {f}"))
                    };
                    Ok((field("name")?, field("unit")?))
                })
                .collect()
        };
        Ok(Self {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// The metrics a run reports: per-layer when traced.
    #[must_use]
    pub fn reported(&self, trace: bool) -> &[(String, String)] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map(|(_, unit)| unit.as_str())
    }
}

/// The catalog of `BENCHMARK.json`, parsed once.
///
/// # Panics
/// Panics if `BENCHMARK.json` lacks either metric list.
#[must_use]
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        Catalog::parse(include_str!("../../BENCHMARK.json")).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (1 for a whole-phase aggregate).
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, streams or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or mismatched.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub mismatches: Vec<String>,
    /// Metrics in the order measured.
    pub metrics: Vec<Metric>,
    /// Context lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Append a metric; its unit comes from the catalog.
    ///
    /// # Panics
    /// Panics on a name `BENCHMARK.json` does not list.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            catalog().unit(name).is_some(),
            "{name} is not in BENCHMARK.json"
        );
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Record a failed output check; `ops` operations count as failed.
    pub fn mismatch(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.mismatches.push(what);
    }
}

/// Times every unit of simulator work runs back to back (a seed's slice
/// of a campaign, a stream); the fastest repeat is its time. The work
/// is deterministic and the host's interference comes in bursts, so the
/// fastest of a few identical repeats tracks the program and not its
/// neighbours.
pub const REPEATS: usize = 3;

/// Times each read (a record's parse, a source's drain) runs back to
/// back; each read's fastest is its time. Reads take micro- to
/// nanoseconds, so they need more repeats than the simulator work to
/// shed the timer's and the host's jitter, and they cost little.
pub const READ_REPEATS: usize = 5;

/// Per-layer values a traced run measured, by catalog name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set one catalog metric.
    ///
    /// # Panics
    /// Panics on a name outside the catalog's `per_layer` list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog().per_layer.iter().any(|(n, _)| n == name),
            "{name} is not in the per-layer catalog"
        );
        self.0.insert(name, value);
    }

    /// The engine-path metrics every in-process workload takes from its
    /// traced pass: materialize, allocate, policy build and run spans,
    /// and the root span's self time as `unattributed_s`.
    #[allow(clippy::cast_precision_loss)]
    #[must_use]
    pub fn engine(tracer: &Tracer, policy: &PolicyStats, events: u64) -> Self {
        let st = tracer.self_times();
        let get = |name: &str| st.get(name).copied().unwrap_or_default();
        let mut l = Self::default();
        let materialize = get("workload.materialize");
        l.set("workload.materialize.calls", materialize.calls as f64);
        l.set("workload.materialize.self_s", materialize.secs());
        let allocate = get("core.allocate");
        l.set("core.allocate.calls", allocate.calls as f64);
        l.set("core.allocate.self_s", allocate.secs());
        if policy.calls > 0 {
            let calls = policy.calls as f64;
            l.set("core.allocate.mean_pending", policy.pending as f64 / calls);
            l.set("core.allocate.changed_share", policy.changed as f64 / calls);
        }
        l.set("core.next_wakeup.calls", policy.wakeups as f64);
        let build = get("core.policy_build");
        l.set("core.policy_build.calls", build.calls as f64);
        l.set("core.policy_build.self_s", build.secs());
        let sim = get("sim.run");
        l.set("sim.runs", sim.calls as f64);
        l.set("sim.events", events as f64);
        l.set("sim.self_s", sim.secs());
        if events > 0 {
            l.set("sim.self_ns_per_event", sim.self_ns as f64 / events as f64);
        }
        l.set("unattributed_s", get("phase").secs());
        l
    }

    /// Emit the whole per-layer catalog into `out`, 0 where unmeasured.
    pub fn report(&self, out: &mut Outcome) {
        for (name, _) in &catalog().per_layer {
            let value = self.0.get(name.as_str()).copied().unwrap_or(0.0);
            out.metric(name, value, 1);
        }
    }
}

/// SplitMix64 step: the `i`-th input seed derived from `seed`.
#[must_use]
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th workload seed derived from `seed`, kept below 2^32 so it
/// survives the JSON number round trip of a spec exactly.
#[must_use]
pub fn input_seed(seed: u64, i: u64) -> u64 {
    derive_seed(seed, i) >> 32
}

/// Peak resident set (VmHWM) of `pid`, or of this process, in MiB.
#[must_use]
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Set-up repetitions per batch of [`SetupTimes`].
const SETUP_BATCH: usize = 21;

/// Set-up time sampled across a whole run. The set-up is repeated in
/// short batches between units of timed work, each batch's median
/// scaled by the host reference sampled next to it, and `setup_s` is
/// the median over the batches. A set-up takes microseconds, while the
/// host changes pace over seconds, so timing it only at the start of a
/// run measured the host's phase at that moment.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Run `setup` once to warm caches and the allocator, then
    /// [`SETUP_BATCH`] times timed; record their median times `scale`.
    pub fn batch<T>(&mut self, scale: f64, mut setup: impl FnMut() -> T) {
        std::hint::black_box(setup());
        let mut secs: Vec<f64> = (0..SETUP_BATCH)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(setup());
                start.elapsed().as_secs_f64()
            })
            .collect();
        self.0.push(stats::median(&mut secs) * scale);
    }

    /// Report the median over the batches as `setup_s`.
    pub fn report(mut self, out: &mut Outcome) {
        let samples = self.0.len() * SETUP_BATCH;
        out.metric("setup_s", stats::median(&mut self.0), samples);
    }
}

/// Milliseconds since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Element-wise minimum of equally long timing vectors (one per repeat
/// of the same deterministic work, such as draining one stream source),
/// or `None` if their lengths differ.
#[must_use]
pub fn fastest(repeats: &[Vec<f64>]) -> Option<Vec<f64>> {
    let (first, rest) = repeats.split_first()?;
    if rest.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| repeats.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .collect(),
    )
}

/// Median and 99th percentile of one set of latencies, ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Samples behind each percentile.
    pub samples: usize,
}

impl Latency {
    /// Percentiles of `samples` (sorted in place); NaN when empty.
    #[must_use]
    pub fn of(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self {
                p50: f64::NAN,
                p99: f64::NAN,
                samples: 0,
            };
        }
        Self {
            p50: stats::percentile(samples, 0.5),
            p99: stats::percentile(samples, 0.99),
            samples: samples.len(),
        }
    }

    /// Each percentile's median over `sets` (one per session).
    #[must_use]
    pub fn median_of(sets: &[Self]) -> Self {
        let mut p50: Vec<f64> = sets.iter().map(|l| l.p50).collect();
        let mut p99: Vec<f64> = sets.iter().map(|l| l.p99).collect();
        let mut samples: Vec<f64> = sets.iter().map(|l| l.samples as f64).collect();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Self {
            p50: stats::median(&mut p50),
            p99: stats::median(&mut p99),
            samples: stats::median(&mut samples) as usize,
        }
    }
}

/// The rate and latency metrics every workload reports.
#[derive(Debug)]
pub struct Throughput {
    /// Simulation runs per second.
    pub runs_per_s: f64,
    /// Engine events per second.
    pub events_per_s: f64,
    /// Operations per second through the per-operation path.
    pub requests_per_s: f64,
    /// Submit latencies.
    pub submit: Latency,
    /// Read latencies.
    pub read: Latency,
}

impl Throughput {
    /// Append the rates and both latency sets' percentiles.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("runs_per_s", self.runs_per_s, 1);
        out.metric("events_per_s", self.events_per_s, 1);
        out.metric("requests_per_s", self.requests_per_s, 1);
        out.metric("submit_p50_ms", self.submit.p50, self.submit.samples);
        out.metric("submit_p99_ms", self.submit.p99, self.submit.samples);
        out.metric("read_p50_ms", self.read.p50, self.read.samples);
        out.metric("read_p99_ms", self.read.p99, self.read.samples);
    }
}

/// A fresh scratch directory inside the working directory (the
/// checkout), removed by [`WorkDir`]'s drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.bench_work/<name>-<pid>`, emptying any leftover.
    pub fn new(name: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |s| {
            s.parse().map_err(|_| format!("bad {flag} value '{s}'"))
        })
    };
    let workload = value("--workload").ok_or("--workload is required")?.clone();
    let seconds = number("--seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 0)?,
        seconds,
        trace,
        iosched: value("--iosched").map(PathBuf::from),
    })
}

/// Print the report: a table on standard error, then the JSON result
/// line with every metric the catalog lists for this kind of run, in
/// catalog order. A catalog metric the run did not measure, or a
/// measured one the catalog lacks, is an error.
fn print_result(out: &Outcome, trace: bool) -> Result<(), String> {
    let listed = catalog().reported(trace);
    if let Some(m) = out
        .metrics
        .iter()
        .find(|m| !listed.iter().any(|(n, _)| n == m.name))
    {
        return Err(format!("{} is not a metric of this kind of run", m.name));
    }
    let mut rows = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("{name} was not measured"))?;
        rows.push((m, unit));
    }
    let correct = out.mismatches.is_empty() && out.failed == 0;
    eprintln!(
        "{:<34} {:>16} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for (m, unit) in &rows {
        eprintln!(
            "{:<34} {:>16.6} {:<6} {:>9}",
            m.name, m.value, unit, m.samples
        );
    }
    for note in &out.notes {
        eprintln!("note: {note}");
    }
    for what in &out.mismatches {
        eprintln!("MISMATCH: {what}");
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(m, unit)| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!("\"{}\":{{\"value\":{value},\"unit\":\"{unit}\"}}", m.name)
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("error: perfbench measures optimized code only; build it with --release");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "closed_campaign" => campaign::closed_campaign(&args),
        "load_sweep" => campaign::load_sweep(&args),
        "open_stream" => stream::open_stream(&args),
        "serve_daemon" => serve::serve_daemon(&args),
        other => Err(format!(
            "unknown workload '{other}' (expected closed_campaign, open_stream, \
             load_sweep or serve_daemon)"
        )),
    };
    match result.and_then(|out| print_result(&out, args.trace)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| derive_seed(7, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_seed(7, i)).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn fastest_takes_the_elementwise_minimum() {
        let got = fastest(&[
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.0],
            vec![9.0, 0.5, 6.0],
        ]);
        assert_eq!(got, Some(vec![2.0, 0.5, 5.0]));
        assert_eq!(fastest(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn layer_report_covers_the_catalog() {
        let mut layers = Layers::default();
        layers.set("sim.events", 12.0);
        let mut out = Outcome::default();
        layers.report(&mut out);
        assert_eq!(out.metrics.len(), catalog().per_layer.len());
        let events = out.metrics.iter().find(|m| m.name == "sim.events").unwrap();
        assert_eq!(events.value, 12.0);
        assert!(print_result(&out, true).is_ok());
        assert!(print_result(&out, false).is_err());
    }

    #[test]
    fn throughput_report_covers_the_end_to_end_catalog() {
        let mut samples = vec![3.0, 1.0, 2.0];
        let t = Throughput {
            runs_per_s: 1.0,
            events_per_s: 2.0,
            requests_per_s: 3.0,
            submit: Latency::of(&mut samples),
            read: Latency::of(&mut []),
        };
        let mut out = Outcome::default();
        out.metric("setup_s", 0.5, 1);
        out.metric("peak_rss_mib", 4.0, 1);
        t.report(&mut out);
        assert!(print_result(&out, false).is_ok());
        out.metrics.pop();
        assert!(
            print_result(&out, false).is_err(),
            "a missing metric is an error"
        );
    }

    #[test]
    fn latency_medians_are_taken_per_percentile() {
        let sessions: Vec<Latency> = [[1.0, 10.0], [3.0, 8.0], [2.0, 30.0]]
            .iter()
            .map(|&[p50, p99]| Latency {
                p50,
                p99,
                samples: 100,
            })
            .collect();
        let m = Latency::median_of(&sessions);
        assert_eq!((m.p50, m.p99, m.samples), (2.0, 10.0, 100));
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let l = Latency::of(&mut xs);
        assert_eq!((l.p50, l.p99, l.samples), (100.0, 198.0, 200));
    }
}

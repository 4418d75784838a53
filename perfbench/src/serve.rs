//! `serve_daemon`: the `iosched serve` binary restarted on a journal of
//! R arrivals, then driven by one closed-loop client on one socket
//! connection, acting as the resource manager that waits for each ack.

use crate::host;
use crate::trace::{ns_to_secs, write_trace, Summed, Tracer};
use crate::{derive_seed, stats, Args, Latency, Layers, Outcome, Throughput, WorkDir};
use iosched_core::registry::PolicyFactory;
use iosched_model::{AppSpec, Bytes, Platform, Time};
use iosched_obs::{HistogramSnapshot, MetricsSnapshot};
use iosched_serve::protocol::final_line;
use iosched_serve::{parse_request, Journal, JournalContents, ServeSpec, Session};
use iosched_sim::{simulate_stream, SimConfig, Simulation};
use serde::Deserialize;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Journaled arrivals every session resumes from (a ~0.4 s resume on
/// the 2-vCPU sizing VM).
const JOURNAL_ARRIVALS: usize = 90_000;
/// Closed-loop requests per second of run length, split evenly over
/// the sessions (~55k requests/s on the 2-vCPU sizing VM, pinned to
/// one CPU).
const REQUESTS_PER_SEC: usize = 24_000;
/// Sessions per run. Each resumes the same journal and replays the same
/// request mix; every metric is the median of the sessions' own values.
/// The sessions spread over the run, so their median rides out a change
/// of the host's pace that a single session would take in full.
const SESSIONS: usize = 7;
/// Mean virtual gap between consecutive releases, seconds. With the
/// application shapes below the platform stays lightly loaded, so no
/// release waits behind a burst.
const MEAN_GAP_SECS: f64 = 10.0;
/// How long a daemon may take to answer its first `status`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Deterministic generator (SplitMix64 over a counter).
struct Rng {
    seed: u64,
    n: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Self { seed, n: 0 }
    }

    fn next(&mut self) -> u64 {
        self.n += 1;
        derive_seed(self.seed, self.n)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let x = (self.next() >> 11) as f64;
        x / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One application as the protocol submits it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    procs: u64,
    work: f64,
    vol: f64,
    count: u64,
}

impl Shape {
    /// Draw a small periodic application: 64–1024 processors, 10–100 s
    /// of work and 1–20 GiB of I/O per instance, 1–3 instances.
    fn draw(rng: &mut Rng) -> Self {
        let round = |x: f64| (x * 100.0).round() / 100.0;
        Self {
            procs: 64 << rng.below(5),
            work: round(10.0 + 90.0 * rng.unit()),
            vol: round(1.0 + 19.0 * rng.unit()),
            count: 1 + rng.below(3),
        }
    }

    fn app(&self, id: usize, release: f64) -> AppSpec {
        #[allow(clippy::cast_possible_truncation)]
        AppSpec::periodic(
            id,
            Time::secs(release),
            self.procs,
            Time::secs(self.work),
            Bytes::gib(self.vol),
            self.count as usize,
        )
    }
}

/// Next release: a fixed mean gap, jittered to `[0.5, 1.5)` of it so
/// no two applications release at one instant.
fn next_release(rng: &mut Rng, last: f64) -> f64 {
    let gap = MEAN_GAP_SECS * (0.5 + rng.unit());
    ((last + gap) * 1000.0).round() / 1000.0
}

/// One request of the closed-loop mix.
#[derive(Debug, Clone, PartialEq)]
enum Req {
    Submit { shape: Shape, release: f64 },
    Status,
    Metrics,
}

impl Req {
    fn line(&self) -> String {
        match self {
            Self::Submit { shape, release } => format!(
                "{{\"cmd\":\"submit\",\"procs\":{},\"work\":{},\"vol\":{},\"count\":{},\
                 \"release\":{release}}}\n",
                shape.procs, shape.work, shape.vol, shape.count
            ),
            Self::Status => "{\"cmd\":\"status\"}\n".into(),
            Self::Metrics => "{\"cmd\":\"metrics\"}\n".into(),
        }
    }
}

/// The seeded inputs: R journaled arrivals and N requests whose
/// submissions release past the journal's last release.
struct Inputs {
    journal: Vec<AppSpec>,
    requests: Vec<Req>,
}

fn inputs(seed: u64, arrivals: usize, requests: usize) -> Inputs {
    let mut rng = Rng::new(derive_seed(seed, 0x5e7e));
    let mut release = 0.0;
    let journal = (0..arrivals)
        .map(|id| {
            release = next_release(&mut rng, release);
            Shape::draw(&mut rng).app(id, release)
        })
        .collect();
    let mut mix = Vec::with_capacity(requests);
    // ~90% submits, ~7% status, ~3% metrics (so the read median falls
    // among the status replies, not on the border between the two); the
    // last request is a `metrics` so its reply carries the daemon's full
    // handler sums.
    for _ in 0..requests.saturating_sub(1) {
        mix.push(match rng.below(100) {
            0..=6 => Req::Status,
            7..=9 => Req::Metrics,
            _ => {
                release = next_release(&mut rng, release);
                Req::Submit {
                    shape: Shape::draw(&mut rng),
                    release,
                }
            }
        });
    }
    mix.push(Req::Metrics);
    Inputs {
        journal,
        requests: mix,
    }
}

/// The recipe `iosched serve --platform intrepid --policy maxsyseff`
/// binds its journal to (frozen clock, telemetry on).
fn serve_spec() -> Result<ServeSpec, String> {
    Ok(ServeSpec {
        platform: Platform::intrepid(),
        policy: PolicyFactory::parse("maxsyseff")?,
        accel: 0.0,
        config: SimConfig {
            telemetry: true,
            ..SimConfig::default()
        },
    })
}

fn write_journal(path: &Path, apps: &[AppSpec]) -> Result<(), String> {
    let mut journal = Journal::create(path, &serve_spec()?)?;
    for app in apps {
        journal.append(app)?;
    }
    Ok(())
}

/// A running daemon, killed and reaped on drop.
struct Daemon {
    child: Child,
    conn: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawn and wait for the socket: connect retries with
    /// sub-millisecond back-off, so readiness is seen within ~0.5 ms.
    fn start(iosched: &Path, journal: &Path, socket: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_file(socket);
        let mut child = Command::new(iosched)
            .args(["serve", "--platform", "intrepid", "--policy", "maxsyseff"])
            .arg("--journal")
            .arg(journal)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", iosched.display()))?;
        let started = Instant::now();
        let mut backoff = Duration::from_micros(20);
        let conn = loop {
            if let Ok(conn) = UnixStream::connect(socket) {
                break conn;
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited before listening ({status})"));
            }
            if started.elapsed() > READY_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not open its socket in time".into());
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_micros(500));
        };
        let reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            child,
            conn,
            reader,
        })
    }

    /// Send `shutdown` and wait for its final line, tracking the
    /// daemon's peak resident set (VmHWM, MiB) over its whole life,
    /// the shutdown's run to completion included. A thread polls VmHWM
    /// while the engine runs, and it is read once more after the reply;
    /// the polls keep the figure if the daemon is already gone by then.
    /// (`wait4`'s `ru_maxrss` is no substitute: a spawned child starts
    /// from its parent's high-water mark.)
    fn shutdown(&mut self, reply: &mut String) -> Result<f64, String> {
        let pid = self.child.id();
        let before = crate::peak_rss_mib(Some(pid)).ok_or("cannot read daemon VmHWM")?;
        let done = AtomicBool::new(false);
        let (sent, polled, after) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut peak = 0.0f64;
                while !done.load(Ordering::Relaxed) {
                    let Some(mib) = crate::peak_rss_mib(Some(pid)) else {
                        break;
                    };
                    peak = peak.max(mib);
                    std::thread::sleep(Duration::from_micros(200));
                }
                peak
            });
            let sent = self.call("{\"cmd\":\"shutdown\"}\n", reply);
            let after = crate::peak_rss_mib(Some(pid));
            done.store(true, Ordering::Relaxed);
            (sent, poller.join().unwrap_or(0.0), after)
        });
        sent?;
        Ok(before.max(polled).max(after.unwrap_or(0.0)))
    }

    /// Send one line and wait for its answer.
    fn call(&mut self, line: &str, reply: &mut String) -> Result<(), String> {
        reply.clear();
        self.conn
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let n = self
            .reader
            .read_line(reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok(())
    }
}

/// The `status` fields the resume decides.
#[derive(Debug, Clone, PartialEq)]
struct Status {
    events: u64,
    admitted: u64,
    queued: u64,
    live: u64,
    finished: u64,
    journaled: u64,
    engine_secs: f64,
}

fn parse_status(line: &str) -> Result<Status, String> {
    let v = serde_json::parse(line.trim()).map_err(|e| format!("status reply: {e}"))?;
    let m = v.as_map().ok_or("status reply is not an object")?;
    if serde::map_get(m, "ok").as_str() != Some("status") {
        return Err(format!("unexpected status reply {}", line.trim()));
    }
    let num = |k: &str| -> Result<f64, String> {
        iosched_model::lossless::float_from_value(serde::map_get(m, k))
            .map_err(|e| format!("status field {k}: {e}"))
    };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let int = |k: &str| num(k).map(|x| x as u64);
    Ok(Status {
        events: int("events")?,
        admitted: int("admitted")?,
        queued: int("queued")?,
        live: int("live")?,
        finished: int("finished")?,
        journaled: int("journaled")?,
        engine_secs: num("engine_secs")?,
    })
}

/// What one daemon session produced.
struct SessionRun {
    setup_s: f64,
    first_status: Status,
    loop_s: f64,
    submit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    rss_mib: f64,
    metrics: MetricsSnapshot,
    final_line: String,
    failed: u64,
    errors: Vec<String>,
}

/// One session: start the daemon on `journal`, time it to its first
/// `status` answer, run the request mix, then shut it down.
fn run_session(
    iosched: &Path,
    dir: &Path,
    journal: &Path,
    reqs: &[Req],
    first_id: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<SessionRun, String> {
    let socket = dir.join("d.sock");
    let mut reply = String::new();
    let started = Instant::now();
    let mut d = Daemon::start(iosched, journal, &socket)?;
    d.call("{\"cmd\":\"status\"}\n", &mut reply)?;
    let setup_s = started.elapsed().as_secs_f64();
    let first_status = parse_status(&reply)?;

    let lines: Vec<String> = reqs.iter().map(Req::line).collect();
    let mut submit_ms = Vec::with_capacity(reqs.len());
    let mut read_ms = Vec::with_capacity(reqs.len() / 8);
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut next_id = first_id;
    let root = tracer.as_mut().map(|t| t.enter("phase"));
    let loop_start = Instant::now();
    for (i, (req, line)) in reqs.iter().zip(&lines).enumerate() {
        let sent = Instant::now();
        d.call(line, &mut reply)?;
        let answered = Instant::now();
        let ms = (answered - sent).as_secs_f64() * 1e3;
        if let Some(t) = tracer.as_mut() {
            t.record("serve.request", sent, answered, i as u64);
        }
        let ok = match req {
            Req::Submit { .. } => {
                submit_ms.push(ms);
                let expected = format!("{{\"ok\":\"submit\",\"id\":{next_id},");
                next_id += 1;
                reply.starts_with(&expected)
            }
            Req::Status => {
                read_ms.push(ms);
                reply.starts_with("{\"ok\":\"status\"")
            }
            Req::Metrics => {
                read_ms.push(ms);
                reply.starts_with("{\"ok\":\"metrics\"")
            }
        };
        if !ok {
            failed += 1;
            if errors.len() < 5 {
                errors.push(format!("request {i}: {}", reply.trim()));
            }
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
        t.exit(id);
    }
    // The mix ends with `metrics`: its reply holds the handler sums.
    let metrics = {
        let v = serde_json::parse(reply.trim()).map_err(|e| format!("metrics reply: {e}"))?;
        let m = v.as_map().ok_or("metrics reply is not an object")?;
        MetricsSnapshot::from_value(serde::map_get(m, "metrics"))
            .map_err(|e| format!("metrics reply: {e}"))?
    };
    let rss_mib = d.shutdown(&mut reply)?;
    let final_line = reply.trim_end().to_string();
    let exit = d.child.wait().map_err(|e| e.to_string())?;
    if !exit.success() {
        errors.push(format!("daemon exited with {exit}"));
    }
    Ok(SessionRun {
        setup_s,
        first_status,
        loop_s,
        submit_ms,
        read_ms,
        rss_mib,
        metrics,
        final_line,
        failed,
        errors,
    })
}

/// The output gate: the journal holds exactly the acknowledged
/// arrivals in order, and a batch replay of it prints the same final
/// line byte for byte.
fn check_outputs(
    iosched: &Path,
    journal: &Path,
    expected: &[AppSpec],
    session: &SessionRun,
    out: &mut Outcome,
) -> Result<(), String> {
    let contents = Journal::load(journal)?;
    if contents.arrivals.as_slice() != expected {
        let first = contents
            .arrivals
            .iter()
            .zip(expected)
            .position(|(a, b)| a != b)
            .unwrap_or(contents.arrivals.len().min(expected.len()));
        out.mismatch(
            1,
            format!(
                "journal holds {} arrivals, expected {}; first difference at {first}",
                contents.arrivals.len(),
                expected.len()
            ),
        );
    }
    let replay = Command::new(iosched)
        .args(["serve", "--replay", "--journal"])
        .arg(journal)
        .output()
        .map_err(|e| format!("{}: {e}", iosched.display()))?;
    let replayed = String::from_utf8_lossy(&replay.stdout);
    if !replay.status.success() || replayed.trim_end() != session.final_line {
        out.mismatch(
            1,
            format!(
                "shutdown line {} != replay {}",
                session.final_line,
                replayed.trim_end()
            ),
        );
    }
    Ok(())
}

/// Replay the session's journal in process through `simulate_stream`
/// with its recipe, telemetry and per-app detail off (neither changes
/// the trajectory; with the detail on, building 200k per-app records
/// made this time swing ±20% between runs), timed and scaled to the
/// nominal host. Its event count and end time must equal the daemon's
/// final line. Returns the scaled seconds and the engine events.
fn timed_replay(
    contents: &JournalContents,
    daemon_line: &str,
    out: &mut Outcome,
) -> Result<(f64, usize), String> {
    let spec = &contents.spec;
    let config = SimConfig {
        telemetry: false,
        per_app_detail: false,
        ..spec.config.clone()
    };
    let daemon = final_fields(daemon_line)?;
    let scale = host::scale();
    let mut policy = spec.policy.build_online(&spec.platform)?;
    let started = Instant::now();
    let outcome = simulate_stream(
        &spec.platform,
        contents.arrivals.iter().cloned(),
        policy.as_mut(),
        &config,
    )
    .map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64() * scale;
    let replay = final_fields(&final_line(&outcome, contents.arrivals.len()))?;
    if (replay.0, replay.1.to_bits()) != (daemon.0, daemon.1.to_bits()) {
        out.mismatch(
            1,
            format!("in-process replay ended at {replay:?}, daemon at {daemon:?}"),
        );
    }
    Ok((secs, outcome.events))
}

/// `(events, end_secs)` of a `{"final":{…}}` line.
fn final_fields(line: &str) -> Result<(u64, f64), String> {
    let v = serde_json::parse(line).map_err(|e| format!("final line: {e}"))?;
    let fin = v
        .as_map()
        .map(|m| serde::map_get(m, "final"))
        .and_then(serde::Value::as_map)
        .ok_or_else(|| format!("expected a final line, got {line}"))?;
    let num = |k: &str| {
        iosched_model::lossless::float_from_value(serde::map_get(fin, k))
            .map_err(|e| format!("final.{k}: {e}"))
    };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok((num("events")? as u64, num("end_secs")?))
}

fn hist<'a>(m: &'a MetricsSnapshot, name: &str) -> Option<&'a HistogramSnapshot> {
    m.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
}

/// Mean of the pooled histograms, µs.
fn mean_us(m: &MetricsSnapshot, names: &[&str]) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for h in names.iter().filter_map(|n| hist(m, n)) {
        sum += h.sum;
        count += h.count;
    }
    #[allow(clippy::cast_precision_loss)]
    let mean = if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e3
    };
    mean
}

/// In-process resume of `journal` through the calls the daemon makes
/// (`Journal::load`, `Session::new`, `Session::advance`), each in a
/// span; returns the resumed status for comparison with the daemon's.
fn traced_resume(journal: &Path, tracer: &mut Tracer, l: &mut Layers) -> Result<Status, String> {
    let root = tracer.enter("resume");
    let contents = tracer.span("serve.resume.load", |_| Journal::load(journal))?;
    let spec = contents.spec.clone();
    let mut policy = spec.policy.build_online(&spec.platform)?;
    let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config)
        .map_err(|e| e.to_string())?;
    let writer = Journal::reopen(journal, &contents)?;
    let mut session = tracer.span("serve.resume.offer", |_| {
        Session::new(sim, writer, &contents.arrivals)
    })?;
    let base = contents
        .arrivals
        .iter()
        .map(AppSpec::release)
        .fold(Time::ZERO, Time::max);
    tracer.span("serve.resume.catchup", |_| session.advance(base))?;
    tracer.exit(root);
    let s = session.status(base);
    let st = tracer.self_times();
    let secs = |n: &str| st.get(n).map_or(0.0, crate::trace::SelfTime::secs);
    l.set("serve.resume.load_s", secs("serve.resume.load"));
    l.set("serve.resume.offer_s", secs("serve.resume.offer"));
    l.set("serve.resume.catchup_s", secs("serve.resume.catchup"));
    #[allow(clippy::cast_precision_loss)]
    l.set("serve.resume.catchup_events", s.events as f64);
    Ok(Status {
        events: s.events as u64,
        admitted: s.admitted as u64,
        queued: s.queued as u64,
        live: s.live as u64,
        finished: s.finished as u64,
        journaled: s.journaled as u64,
        engine_secs: s.engine_secs,
    })
}

/// Mean `parse_request` time per request line, µs, summed onto one span.
fn traced_parse(reqs: &[Req], tracer: &mut Tracer) -> Result<f64, String> {
    let lines: Vec<String> = reqs.iter().map(Req::line).collect();
    let id = tracer.enter("serve.protocol");
    let mut ns = 0u64;
    for line in &lines {
        let started = Instant::now();
        let parsed = parse_request(line.trim_end());
        ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        parsed?;
    }
    tracer.exit(id);
    tracer.add_summed(
        id,
        Summed {
            name: "serve.protocol.parse",
            calls: lines.len() as u64,
            ns,
        },
    );
    #[allow(clippy::cast_precision_loss)]
    Ok(ns_to_secs(ns) * 1e6 / lines.len().max(1) as f64)
}

/// `serve_daemon`: see the module docs.
pub fn serve_daemon(args: &Args) -> Result<Outcome, String> {
    let iosched = args
        .iosched
        .clone()
        .ok_or("serve_daemon needs --iosched PATH (the iosched binary of the same build)")?;
    if iosched.parent().and_then(Path::file_name) != Some(std::ffi::OsStr::new("release")) {
        return Err(format!(
            "{} is not a release build; refusing to measure it",
            iosched.display()
        ));
    }
    let seconds = usize::try_from(args.seconds).map_err(|e| e.to_string())?;
    let inp = inputs(
        args.seed,
        JOURNAL_ARRIVALS,
        seconds * REQUESTS_PER_SEC / SESSIONS,
    );
    let dir = WorkDir::new("serve_daemon")?;
    let base = dir.path().join("journal.jsonl");
    write_journal(&base, &inp.journal)?;
    let fresh_copy = |name: &str| -> Result<std::path::PathBuf, String> {
        let path = dir.path().join(name);
        std::fs::copy(&base, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    };

    let mut expected = inp.journal.clone();
    for req in &inp.requests {
        if let Req::Submit { shape, release } = req {
            expected.push(shape.app(expected.len(), *release));
        }
    }
    let submits = expected.len() - JOURNAL_ARRIVALS;

    // Every session is fresh, on a fresh copy of the journal, and runs
    // the same request mix: each must end in the same bytes. After each
    // untraced session its journal is replayed in process, so the
    // replays, like the sessions, sample the host across the run.
    let mut out = Outcome::default();
    let mut sessions: Vec<SessionRun> = Vec::with_capacity(SESSIONS);
    // Host reference sampled around each session (see `host`).
    let mut scales: Vec<f64> = Vec::with_capacity(SESSIONS);
    let mut first_journal = None;
    let mut replayed: Option<JournalContents> = None;
    let mut replays: Vec<(f64, usize)> = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let journal = fresh_copy(&format!("journal-{i}.jsonl"))?;
        let before = host::scale();
        let mut session = run_session(
            &iosched,
            dir.path(),
            &journal,
            &inp.requests,
            JOURNAL_ARRIVALS,
            None,
        )?;
        scales.push((before + host::scale()) / 2.0);
        out.attempted += inp.requests.len() as u64;
        out.failed += session.failed;
        out.mismatches.append(&mut session.errors);
        if session.first_status.journaled != JOURNAL_ARRIVALS as u64 {
            out.mismatch(
                1,
                format!(
                    "resumed daemon reports {} journaled",
                    session.first_status.journaled
                ),
            );
        }
        match (&first_journal, sessions.first()) {
            (Some(j0), Some(s0)) => {
                let same_journal = std::fs::read(j0).ok() == std::fs::read(&journal).ok();
                if session.final_line != s0.final_line
                    || session.first_status != s0.first_status
                    || !same_journal
                {
                    out.mismatch(
                        inp.requests.len() as u64,
                        format!(
                            "session {i} resumed to {:?} and ended {} after a different \
                             journal",
                            session.first_status, session.final_line
                        ),
                    );
                }
                std::fs::remove_file(&journal).map_err(|e| e.to_string())?;
            }
            _ => first_journal = Some(journal),
        }
        if !args.trace {
            if replayed.is_none() {
                let j0 = first_journal.as_ref().expect("set by the first session");
                replayed = Some(Journal::load(j0)?);
            }
            let contents = replayed.as_ref().expect("loaded above");
            replays.push(timed_replay(contents, &session.final_line, &mut out)?);
        }
        sessions.push(session);
    }
    let session = &sessions[0];
    let journal = first_journal.expect("at least one session");
    check_outputs(&iosched, &journal, &expected, session, &mut out)?;
    out.notes.push(format!(
        "R = {JOURNAL_ARRIVALS} journaled arrivals; {SESSIONS} sessions of {} requests \
         ({submits} submits); resume caught up {} events; final line {}",
        inp.requests.len(),
        session.first_status.events,
        session.final_line
    ));

    if args.trace {
        let mut tracer = Tracer::new();
        let mut l = Layers::default();
        let resumed = traced_resume(&fresh_copy("journal-resume.jsonl")?, &mut tracer, &mut l)?;
        if resumed != session.first_status {
            out.mismatch(
                1,
                format!(
                    "in-process resume {resumed:?} != daemon {:?}",
                    session.first_status
                ),
            );
        }
        l.set(
            "serve.protocol.parse_us",
            traced_parse(&inp.requests, &mut tracer)?,
        );
        let traced_journal = fresh_copy("journal-traced.jsonl")?;
        let before = std::fs::metadata(&traced_journal).map_or(0, |m| m.len());
        let traced = run_session(
            &iosched,
            dir.path(),
            &traced_journal,
            &inp.requests,
            JOURNAL_ARRIVALS,
            Some(&mut tracer),
        )?;
        let after = std::fs::metadata(&traced_journal).map_or(0, |m| m.len());
        if traced.final_line != session.final_line || traced.failed != 0 {
            out.mismatch(1, format!("traced session ended {}", traced.final_line));
        }
        let m = &traced.metrics;
        l.set(
            "serve.handler.submit_us",
            mean_us(m, &["serve.request.submit.ns"]),
        );
        let reads = ["serve.request.status.ns", "serve.request.metrics.ns"];
        l.set("serve.handler.read_us", mean_us(m, &reads));
        l.set(
            "serve.journal.append_us",
            mean_us(m, &["serve.journal.append.ns"]),
        );
        #[allow(clippy::cast_precision_loss)]
        l.set(
            "serve.journal.bytes_per_arrival",
            after.saturating_sub(before) as f64 / submits.max(1) as f64,
        );
        let all: Vec<f64> = traced
            .submit_ms
            .iter()
            .chain(&traced.read_ms)
            .copied()
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let client_us = all.iter().sum::<f64>() * 1e3 / all.len().max(1) as f64;
        let handler_us = mean_us(
            m,
            &[
                "serve.request.submit.ns",
                "serve.request.status.ns",
                "serve.request.metrics.ns",
            ],
        );
        l.set("serve.transport_us", client_us - handler_us);
        let st = tracer.self_times();
        l.set(
            "unattributed_s",
            st.get("phase").map_or(0.0, crate::trace::SelfTime::secs),
        );
        let mut loop_s: Vec<f64> = sessions.iter().map(|s| s.loop_s).collect();
        l.set(
            "tracing_overhead",
            traced.loop_s / stats::median(&mut loop_s) - 1.0,
        );
        l.report(&mut out);
        write_trace(&tracer, "serve_daemon");
        return Ok(out);
    }

    // Every metric is computed per session from that session's own
    // samples, scaled by the host reference sampled around it, and the
    // median over the sessions is reported.
    let n = inp.requests.len();
    let per = |f: &dyn Fn(&SessionRun, f64) -> f64| -> f64 {
        let mut values: Vec<f64> = sessions
            .iter()
            .zip(&scales)
            .map(|(s, &k)| f(s, k))
            .collect();
        stats::median(&mut values)
    };
    out.metric("setup_s", per(&|s, k| s.setup_s * k), SESSIONS);
    out.metric("peak_rss_mib", per(&|s, _| s.rss_mib), SESSIONS);
    #[allow(clippy::cast_precision_loss)]
    let requests_per_s = per(&|s, k| n as f64 / (s.loop_s * k));
    let latencies = |f: fn(&SessionRun) -> &Vec<f64>| {
        let each: Vec<Latency> = sessions
            .iter()
            .zip(&scales)
            .map(|(s, k)| Latency::of(&mut f(s).iter().map(|ms| ms * k).collect::<Vec<_>>()))
            .collect();
        Latency::median_of(&each)
    };
    // Each replay is scaled by its own host sample, so their median,
    // not the fastest, is reported: the fastest is the one whose sample
    // overstated the host's slowness most.
    let replay_rate = |f: fn(f64, usize) -> f64| {
        let mut rates: Vec<f64> = replays.iter().map(|&(s, e)| f(s, e)).collect();
        stats::median(&mut rates)
    };
    #[allow(clippy::cast_precision_loss)]
    Throughput {
        runs_per_s: replay_rate(|secs, _| 1.0 / secs),
        events_per_s: replay_rate(|secs, events| events as f64 / secs),
        requests_per_s,
        submit: latencies(|s| &s.submit_ms),
        read: latencies(|s| &s.read_ms),
    }
    .report(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_deterministic_per_seed() {
        let a = inputs(3, 50, 400);
        let b = inputs(3, 50, 400);
        assert_eq!(a.journal, b.journal);
        assert_eq!(a.requests, b.requests);
        let c = inputs(4, 50, 400);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn request_mix_shape() {
        let inp = inputs(11, 100, 4000);
        assert_eq!(inp.requests.len(), 4000);
        assert_eq!(inp.requests.last(), Some(&Req::Metrics));
        let submits = inp
            .requests
            .iter()
            .filter(|r| matches!(r, Req::Submit { .. }))
            .count();
        assert!((3400..3800).contains(&submits), "{submits} submits");
        // Releases strictly increase from past the journal's last one.
        let mut last = inp.journal.last().unwrap().release().get();
        for r in &inp.requests {
            if let Req::Submit { release, .. } = r {
                assert!(*release > last);
                last = *release;
            }
        }
    }

    #[test]
    fn submit_lines_parse_back_to_the_expected_app() {
        let inp = inputs(5, 1, 200);
        let mut id = 1;
        for r in &inp.requests {
            let Req::Submit { shape, release } = r else {
                continue;
            };
            let parsed = parse_request(r.line().trim_end()).unwrap();
            let iosched_serve::Request::Submit {
                submission,
                release: Some(stamped),
            } = parsed
            else {
                panic!("not a submit with a release");
            };
            assert_eq!(submission.into_app(id, stamped), shape.app(id, *release));
            id += 1;
        }
    }
}

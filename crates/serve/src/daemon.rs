//! The daemon: sockets, threads and the drive loop around a
//! [`Session`].
//!
//! One thread per input (stdin, plus one per accepted Unix-socket
//! connection) feeds parsed-enough lines into an mpsc channel; the
//! single main thread owns the engine and processes messages strictly
//! in arrival order, interleaved with clock-bounded engine drives. No
//! engine state is ever shared across threads — the daemon is a
//! sequential state machine with concurrent *readers*.
//!
//! ```text
//!   stdin ───reader──┐
//!   socket conn 1 ───┼──mpsc──▶ main loop: advance(clock) → handle line
//!   socket conn 2 ───┘                 │
//!                                      └──▶ per-client writers (+ telemetry
//!                                           subscribers, final broadcast)
//! ```
//!
//! Between messages the loop drives the engine up to the virtual clock
//! and sleeps until the earlier of the next engine event (converted to
//! wall time through the acceleration factor) and a 200 ms heartbeat.
//! Because bounded driving is bit-identical to free running (pinned in
//! the engine suite), the pause pattern — and therefore wall-clock
//! jitter — can never influence simulated results; only the accepted
//! arrival sequence can, and that is exactly what the journal records.

use crate::journal::{Journal, JournalContents, ServeSpec};
use crate::metrics::RequestKind;
use crate::protocol::{
    self, checkpoint_line, drain_line, error_line, final_line, metrics_line, status_line,
    submit_line, telemetry_line, Request,
};
use crate::session::Session;
use iosched_model::Time;
use iosched_obs::Stopwatch;
use iosched_sim::{SimConfig, SimOutcome, Simulation, VirtualClock};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

/// Daemon I/O configuration (the engine recipe lives in [`ServeSpec`]).
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Arrival journal path — created fresh, or resumed from when the
    /// file already exists.
    pub journal: PathBuf,
    /// Optional Unix-domain socket to serve alongside stdin.
    pub socket: Option<PathBuf>,
}

type ClientId = usize;
const STDIN_CLIENT: ClientId = 0;

enum Inbound {
    Line(ClientId, String),
    Connected(ClientId, UnixStream),
    Eof(ClientId),
}

enum ClientWriter {
    Stdout,
    Socket(UnixStream),
}

impl ClientWriter {
    /// Write one protocol line, explicitly flushed (subscribers tail
    /// the feed live; a buffered line is an invisible line). Returns
    /// false when the client is gone.
    fn send(&mut self, line: &str) -> bool {
        match self {
            Self::Stdout => write_line(&mut std::io::stdout().lock(), line).is_ok(),
            Self::Socket(stream) => write_line(stream, line).is_ok(),
        }
    }
}

/// Write `line` and its newline as one framed buffer, then flush. On an
/// unbuffered socket `writeln!` issues two writes — the line, then the
/// newline — so a reader blocked on the socket could wake for a line
/// without its newline and have to wake again.
fn write_line(out: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    out.write_all(framed.as_bytes())?;
    out.flush()
}

fn spawn_reader(
    id: ClientId,
    input: impl std::io::Read + Send + 'static,
    tx: &mpsc::Sender<Inbound>,
) {
    let tx = tx.clone();
    std::thread::spawn(move || {
        for line in BufReader::new(input).lines() {
            let Ok(line) = line else { break };
            if tx.send(Inbound::Line(id, line)).is_err() {
                return;
            }
        }
        let _ = tx.send(Inbound::Eof(id));
    });
}

/// Run the daemon until a `drain`/`shutdown` command (or stdin EOF in
/// pure-stdin mode, which drains). Resumes from `opts.journal` when the
/// file exists — the resumed trajectory is bit-identical to one that
/// was never interrupted.
pub fn run_daemon(spec: &ServeSpec, opts: &DaemonOptions) -> Result<(), String> {
    spec.validate()?;
    // Fresh session or resume: the journal decides.
    let recovered: Option<JournalContents> = if opts.journal.exists() {
        let contents = Journal::load(&opts.journal)?;
        if contents.spec != *spec {
            return Err(format!(
                "journal {} was recorded under a different recipe \
                 (platform/policy/accel/config); re-run with matching flags \
                 or pick a fresh journal path",
                opts.journal.display()
            ));
        }
        Some(contents)
    } else {
        None
    };
    let journal = match &recovered {
        Some(contents) => Journal::reopen(&opts.journal, contents)?,
        None => Journal::create(&opts.journal, spec)?,
    };
    // The resumed clock starts past everything the previous pass saw:
    // the drain marker's instant and every journaled release.
    let base = recovered.as_ref().map_or(Time::ZERO, |c| {
        let last_release = c
            .arrivals
            .iter()
            .map(|a| a.release())
            .fold(Time::ZERO, Time::max);
        Time::secs(c.drained_at_secs.unwrap_or(0.0)).max(last_release)
    });
    let clock = VirtualClock::new(base, spec.accel);

    // The live engine keeps no telemetry series: the feed reads the
    // always-on ring, the final line carries no telemetry, and the
    // series never changes a simulated result. The journal keeps the
    // recipe as given, so a replay still reports its telemetry block.
    let config = SimConfig {
        telemetry: false,
        ..spec.config.clone()
    };
    let mut policy = spec.policy.build_online(&spec.platform)?;
    let sim =
        Simulation::open(&spec.platform, policy.as_mut(), &config).map_err(|e| e.to_string())?;
    let arrivals = recovered.map(|c| c.arrivals).unwrap_or_default();
    let session = Session::new(sim, journal, &arrivals)?;
    // The engine keeps its own copies: free the recovered list (7 MB at
    // 90,000 arrivals) instead of holding it until the daemon exits.
    drop(arrivals);

    let (tx, rx) = mpsc::channel::<Inbound>();
    spawn_reader(STDIN_CLIENT, std::io::stdin(), &tx);
    let socket_mode = opts.socket.is_some();
    if let Some(path) = &opts.socket {
        // A stale socket file (previous daemon SIGKILLed) blocks bind.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let tx = tx.clone();
        std::thread::spawn(move || {
            for (k, conn) in listener.incoming().enumerate() {
                let Ok(conn) = conn else { break };
                if tx.send(Inbound::Connected(k + 1, conn)).is_err() {
                    return;
                }
            }
        });
    }
    let result = drive(session, &clock, &rx, &tx, socket_mode);
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// The main loop. Owns the session; returns once the session ended (by
/// drain or shutdown) or on a fatal engine/journal error.
fn drive(
    mut session: Session<'_>,
    clock: &VirtualClock,
    rx: &mpsc::Receiver<Inbound>,
    tx: &mpsc::Sender<Inbound>,
    socket_mode: bool,
) -> Result<(), String> {
    let mut writers: HashMap<ClientId, ClientWriter> = HashMap::new();
    writers.insert(STDIN_CLIENT, ClientWriter::Stdout);
    let mut subscribers: Vec<ClientId> = Vec::new();
    let heartbeat = Duration::from_millis(200);

    loop {
        // Drive the engine up to the virtual clock, then fan freshly
        // closed telemetry intervals out to subscribers.
        let status = session.advance(clock.now())?;
        if !subscribers.is_empty() {
            for sample in session.fresh_samples() {
                let line = telemetry_line(&sample);
                subscribers.retain(|id| match writers.get_mut(id) {
                    Some(w) => w.send(&line),
                    None => false,
                });
            }
        }
        // Sleep until the next engine event is due (in wall terms) or
        // the heartbeat, whichever is sooner.
        let wait = match status {
            iosched_sim::RunStatus::Blocked(t) => heartbeat.min(clock.wall_until(t)),
            _ => heartbeat,
        };
        let inbound = match rx.recv_timeout(wait) {
            Ok(inbound) => inbound,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            // Unreachable while `tx` is alive in this frame, but a
            // drain is the only sane answer if it ever fires.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let n = session.drain(clock.now())?;
                broadcast(&mut writers, &drain_line(n, clock.now().get()));
                return Ok(());
            }
        };
        match inbound {
            Inbound::Connected(id, stream) => {
                let reader = match stream.try_clone() {
                    Ok(r) => r,
                    Err(_) => continue,
                };
                writers.insert(id, ClientWriter::Socket(stream));
                spawn_reader(id, reader, tx);
            }
            Inbound::Eof(id) => {
                if id == STDIN_CLIENT && !socket_mode {
                    // Pure-stdin pipeline: end of input is a drain.
                    let n = session.drain(clock.now())?;
                    broadcast(&mut writers, &drain_line(n, clock.now().get()));
                    return Ok(());
                }
                writers.remove(&id);
                subscribers.retain(|s| *s != id);
            }
            Inbound::Line(id, line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let request = match protocol::parse_request(&line) {
                    Ok(request) => request,
                    Err(e) => {
                        session.metrics().parse_errors += 1;
                        respond(&mut writers, id, &error_line(&e));
                        continue;
                    }
                };
                // Per-request latency: one watch per parsed line, recorded
                // into the command's histogram after its response went out
                // (the kind is taken here because the handlers consume the
                // request).
                session.metrics().requests += 1;
                let kind = RequestKind::of(&request);
                let watch = Stopwatch::start();
                match request {
                    Request::Submit {
                        submission,
                        release,
                    } => {
                        match session.submit(submission, release, clock.now()) {
                            Err(rejected) => respond(&mut writers, id, &error_line(&rejected)),
                            Ok(Err(fatal)) => {
                                broadcast(&mut writers, &error_line(&fatal));
                                return Err(fatal);
                            }
                            Ok(Ok((app_id, stamped))) => {
                                respond(&mut writers, id, &submit_line(app_id, stamped));
                            }
                        }
                        watch.record(session.metrics().request_hist(kind));
                    }
                    Request::Status => {
                        respond(&mut writers, id, &status_line(&session.status(clock.now())));
                        watch.record(session.metrics().request_hist(kind));
                    }
                    Request::Metrics => {
                        let snapshot = session.metrics_snapshot(clock.now());
                        respond(&mut writers, id, &metrics_line(&snapshot));
                        watch.record(session.metrics().request_hist(kind));
                    }
                    Request::Telemetry { follow } => {
                        if follow && !subscribers.contains(&id) {
                            subscribers.push(id);
                        }
                        let line = session.last_sample().map_or_else(
                            || error_line("no telemetry interval has closed yet"),
                            |s| telemetry_line(&s),
                        );
                        respond(&mut writers, id, &line);
                        watch.record(session.metrics().request_hist(kind));
                    }
                    Request::Checkpoint => {
                        let line = match session.checkpoint() {
                            Ok(n) => checkpoint_line(n, &session.journal_path()),
                            Err(e) => error_line(&e),
                        };
                        respond(&mut writers, id, &line);
                        watch.record(session.metrics().request_hist(kind));
                    }
                    Request::Drain => {
                        let n = session.drain(clock.now())?;
                        broadcast(&mut writers, &drain_line(n, clock.now().get()));
                        watch.record(session.metrics().request_hist(kind));
                        return Ok(());
                    }
                    Request::Shutdown => {
                        let accepted = session.accepted();
                        if accepted == 0 {
                            respond(
                                &mut writers,
                                id,
                                &error_line(
                                    "nothing was submitted; objectives over zero \
                                     applications are undefined (drain instead)",
                                ),
                            );
                            watch.record(session.metrics().request_hist(kind));
                            continue;
                        }
                        let (outcome, accepted) = session.finish()?;
                        broadcast(&mut writers, &final_line(&outcome, accepted));
                        return Ok(());
                    }
                }
            }
        }
    }
}

fn respond(writers: &mut HashMap<ClientId, ClientWriter>, id: ClientId, line: &str) {
    if let Some(w) = writers.get_mut(&id) {
        if !w.send(line) {
            writers.remove(&id);
        }
    }
}

fn broadcast(writers: &mut HashMap<ClientId, ClientWriter>, line: &str) {
    writers.retain(|_, w| w.send(line));
}

/// Batch-replay a journal: load it, check its recipe, and run its
/// arrivals through the stream engine under the recorded policy and
/// config, with a decision trace of `trace_capacity` records attached
/// when asked (observation-only). Returns the recipe, the outcome and
/// the number of arrivals replayed. `iosched serve --replay` renders the
/// outcome as the `{"final":…}` line ([`final_line`]) — byte-identical to
/// what the recorded session printed (or would have printed) at
/// shutdown; the CI smoke and the resume tests diff against it.
pub fn replay(
    journal: &Path,
    trace_capacity: Option<usize>,
) -> Result<(ServeSpec, SimOutcome, usize), String> {
    let contents = Journal::load(journal)?;
    contents.spec.validate()?;
    if contents.arrivals.is_empty() {
        return Err(format!(
            "journal {} holds no arrivals; nothing to replay",
            journal.display()
        ));
    }
    let spec = contents.spec;
    let accepted = contents.arrivals.len();
    let mut policy = spec.policy.build_online(&spec.platform)?;
    let mut sim = Simulation::from_stream(
        &spec.platform,
        contents.arrivals.into_iter(),
        policy.as_mut(),
        &spec.config,
    )
    .map_err(|e| e.to_string())?;
    if let Some(capacity) = trace_capacity {
        sim.enable_decision_trace(capacity);
    }
    let outcome = sim.run_to_completion().map_err(|e| e.to_string())?;
    Ok((spec, outcome, accepted))
}

/// Client mode: pipe stdin lines to a daemon's socket and its response
/// lines to stdout, until stdin closes and the daemon stops talking.
/// (`printf '{"cmd":"status"}\n' | iosched serve --connect /path.sock`.)
pub fn connect(socket: &Path) -> Result<(), String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("{}: {e}", socket.display()))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("{}: {e}", socket.display()))?;
    let pump = std::thread::spawn(move || {
        let mut out = std::io::stdout();
        for line in BufReader::new(reader).lines() {
            let Ok(line) = line else { break };
            if write_line(&mut out, &line).is_err() {
                break;
            }
        }
    });
    let mut stream_w = stream;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if write_line(&mut stream_w, &line).is_err() {
            break;
        }
    }
    let _ = stream_w.shutdown(std::net::Shutdown::Write);
    let _ = pump.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::write_line;
    use std::io::Write;

    /// A sink that keeps the bytes of every `write` call separately.
    #[derive(Default)]
    struct Calls(Vec<Vec<u8>>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_protocol_line_is_one_write() {
        let mut sink = Calls::default();
        for line in [r#"{"cmd":"status"}"#, "", "x"] {
            write_line(&mut sink, line).unwrap();
        }
        let want: Vec<Vec<u8>> = vec![
            b"{\"cmd\":\"status\"}\n".to_vec(),
            b"\n".to_vec(),
            b"x\n".to_vec(),
        ];
        assert_eq!(sink.0, want);
    }
}

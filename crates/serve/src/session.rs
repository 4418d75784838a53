//! The serve session: an I/O-free state machine tying the open-admission
//! engine to the arrival journal.
//!
//! The daemon loop (`daemon.rs`) owns the sockets and threads; this
//! module owns everything that *decides* — release stamping, admission,
//! journaling order, telemetry fan-out bookkeeping, drain and shutdown
//! semantics — so the whole protocol surface is unit-testable in
//! process, without a daemon, a socket or a wall clock.
//!
//! ## The admission contract
//!
//! A submission is acknowledged only after (1) the engine accepted the
//! offer and (2) the arrival line reached the journal. Order matters:
//! an arrival the engine rejected must not pollute the journal (a
//! replay would refuse it), and an arrival the journal lost must not be
//! acknowledged (the client would believe in work a crash forgot). A
//! journal-write failure after a successful offer is the one
//! irrecoverable split — the session reports it as fatal rather than
//! limp along with a checkpoint that silently diverges from the engine.
//!
//! ## Release stamping
//!
//! An explicit `release` rides through untouched (the engine validates
//! it). Without one, the session stamps
//! `max(virtual_now, last_release, just_past_engine_clock)` — the
//! latest of "now" in wall terms, "after every arrival already
//! accepted" (the engine's sorted-release contract), and "strictly
//! after the engine clock" (the [`Simulation::offer`] equivalence
//! invariant that makes the trajectory replayable).

use crate::journal::Journal;
use crate::metrics::ServeMetrics;
use crate::protocol::StatusReport;
use iosched_model::{AppSpec, Time, EPS};
use iosched_obs::{MetricsSnapshot, Stopwatch};
use iosched_sim::{RunStatus, SimOutcome, Simulation, TelemetrySample, TraceEvent};
use iosched_workload::AppSubmission;

/// Live session state: the open engine plus the write-ahead journal.
pub struct Session<'a> {
    sim: Simulation<'a>,
    journal: Journal,
    last_release: Time,
    tel_seen: usize,
    draining: bool,
    metrics: ServeMetrics,
}

/// The first virtual instant strictly past `now` under the engine's
/// EPS-tolerant comparisons (`approx_gt`), i.e. the earliest release an
/// offer may carry once the clock reached `now`.
fn just_past(now: Time) -> Time {
    Time::secs(now.get() + 2.0 * EPS * now.get().abs().max(1.0))
}

impl<'a> Session<'a> {
    /// Open a session over a fresh or recovered journal, replaying
    /// `recovered` arrivals (in journal order) into the new engine.
    /// After replay the engine is at `t = 0` with every recovered
    /// arrival queued — byte-identical to the state an uninterrupted
    /// session had before its clock first moved past a release.
    pub fn new(
        sim: Simulation<'a>,
        journal: Journal,
        recovered: &[AppSpec],
    ) -> Result<Self, String> {
        let mut session = Self {
            sim,
            journal,
            last_release: Time::ZERO,
            tel_seen: 0,
            draining: false,
            metrics: ServeMetrics::default(),
        };
        for app in recovered {
            session
                .sim
                .offer(app.clone())
                .map_err(|e| format!("journal replay rejected arrival {}: {e}", app.id()))?;
            session.last_release = session.last_release.max(app.release());
        }
        Ok(session)
    }

    /// Accept one submission: stamp id and release, offer it to the
    /// engine, journal it, acknowledge. Returns `(id, release)`.
    ///
    /// The outer `Result` is a protocol-level rejection (answered to the
    /// client, daemon lives on); the inner write failure from the
    /// journal is returned as `Ok(Err(…))` — fatal, the checkpoint can
    /// no longer be trusted.
    pub fn submit(
        &mut self,
        submission: AppSubmission,
        release: Option<Time>,
        virtual_now: Time,
    ) -> Result<Result<(usize, Time), String>, String> {
        if self.draining {
            self.metrics.rejected += 1;
            return Err("daemon is draining; submissions are closed".into());
        }
        let release = release.unwrap_or_else(|| {
            virtual_now
                .max(self.last_release)
                .max(just_past(self.sim.now()))
        });
        let id = self.sim.admitted() + self.sim.queued();
        let app = submission.into_app(id, release);
        if let Err(e) = self.sim.offer(app.clone()) {
            self.metrics.rejected += 1;
            return Err(e.to_string());
        }
        let watch = Stopwatch::start();
        if let Err(e) = self.journal.append(&app) {
            return Ok(Err(format!(
                "arrival accepted but journal write failed ({e}); \
                 the checkpoint is no longer trustworthy"
            )));
        }
        watch.record(&mut self.metrics.journal_append);
        self.sim.trace_event(TraceEvent::JournalFlush {
            t: self.sim.now().as_secs(),
            arrivals: self.journal.arrivals() as u64,
            synced: false,
        });
        self.last_release = self.last_release.max(release);
        Ok(Ok((id, release)))
    }

    /// Drive the engine up to virtual instant `bound` (executes every
    /// event at or before it; never advances the clock *to* the bound
    /// itself, so driving in hops is bit-identical to running free).
    pub fn advance(&mut self, bound: Time) -> Result<RunStatus, String> {
        self.sim.run_until(bound).map_err(|e| e.to_string())
    }

    /// Telemetry intervals closed since the last call, oldest first —
    /// the live feed. Under a burst of more intervals than the
    /// telemetry ring holds, the oldest are dropped (the feed is a tap,
    /// not a ledger).
    pub fn fresh_samples(&mut self) -> Vec<TelemetrySample> {
        let total = self.sim.telemetry().samples();
        let delta = total - self.tel_seen;
        self.tel_seen = total;
        if delta == 0 {
            return Vec::new();
        }
        self.sim.telemetry().recent(delta)
    }

    /// The most recently closed telemetry interval, if any.
    #[must_use]
    pub fn last_sample(&self) -> Option<TelemetrySample> {
        self.sim.telemetry().last().copied()
    }

    /// Daemon + engine state snapshot.
    #[must_use]
    pub fn status(&self, virtual_now: Time) -> StatusReport {
        StatusReport {
            clock_secs: virtual_now.get(),
            engine_secs: self.sim.now().get(),
            events: self.sim.events(),
            admitted: self.sim.admitted(),
            queued: self.sim.queued(),
            live: self.sim.live(),
            finished: self.sim.finished_count(),
            journaled: self.journal.arrivals(),
            draining: self.draining,
        }
    }

    /// Force the journal to durable storage; returns the arrival count.
    pub fn checkpoint(&mut self) -> Result<usize, String> {
        self.synced_flush()?;
        Ok(self.journal.arrivals())
    }

    /// Stop accepting submissions and checkpoint. The daemon exits
    /// after this; a later session resumes from the journal.
    pub fn drain(&mut self, virtual_now: Time) -> Result<usize, String> {
        self.journal.mark_drain(virtual_now.get())?;
        self.synced_flush()?;
        self.draining = true;
        Ok(self.journal.arrivals())
    }

    /// Fsync the journal, timing the barrier and stamping a `synced`
    /// flush into the decision trace (when one is attached).
    fn synced_flush(&mut self) -> Result<(), String> {
        let watch = Stopwatch::start();
        self.journal.sync()?;
        watch.record(&mut self.metrics.journal_fsync);
        self.sim.trace_event(TraceEvent::JournalFlush {
            t: self.sim.now().as_secs(),
            arrivals: self.journal.arrivals() as u64,
            synced: true,
        });
        Ok(())
    }

    /// The session's metrics (the daemon loop records request counts
    /// and latencies into these).
    pub fn metrics(&mut self) -> &mut ServeMetrics {
        &mut self.metrics
    }

    /// The whole metrics catalog, with the queue depths read from live
    /// engine state — the `metrics` command's payload.
    #[must_use]
    pub fn metrics_snapshot(&self, virtual_now: Time) -> MetricsSnapshot {
        self.metrics
            .snapshot(&self.status(virtual_now), self.sim.pending_len())
    }

    /// The journal file (for the `checkpoint` acknowledgement).
    #[must_use]
    pub fn journal_path(&self) -> String {
        self.journal.path().display().to_string()
    }

    /// Arrivals accepted over the session's whole life (journal length).
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.journal.arrivals()
    }

    /// Close admission and run the engine to completion — the
    /// `shutdown` command. Consumes the session; the journal remains on
    /// disk (a replay of it reproduces the returned outcome
    /// bit-for-bit).
    pub fn finish(mut self) -> Result<(SimOutcome, usize), String> {
        let accepted = self.journal.arrivals();
        self.sim.close_admission();
        let outcome = self.sim.run_to_completion().map_err(|e| e.to_string())?;
        Ok((outcome, accepted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::ServeSpec;
    use iosched_core::registry::PolicyFactory;
    use iosched_model::Platform;
    use iosched_sim::{simulate_stream, SimConfig};
    use std::path::PathBuf;

    fn spec() -> ServeSpec {
        ServeSpec {
            platform: Platform::intrepid(),
            policy: PolicyFactory::parse("maxsyseff").unwrap(),
            accel: 0.0,
            config: SimConfig::default(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iosched-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn submission(k: usize) -> AppSubmission {
        AppSubmission::parse_json(&format!(
            r#"{{"procs": {}, "work": {}, "vol": {}, "count": 3}}"#,
            1 << (6 + (k % 4)),
            50.0 + 17.0 * k as f64,
            256.0 + 64.0 * k as f64,
        ))
        .unwrap()
    }

    /// The tentpole equivalence: a session fed submissions over the
    /// protocol path (stamp → offer → journal), driven in arbitrary
    /// hops, finishes bit-identically to `simulate_stream` over the
    /// same arrival sequence — and so does a second session replaying
    /// the journal the first one wrote.
    #[test]
    fn session_and_journal_replay_match_simulate_stream_bit_for_bit() {
        let spec = spec();
        let path = tmp("equiv.jsonl");

        // Session 1: submit over the protocol path with explicit
        // releases, drive in hops, finish.
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
        let journal = Journal::create(&path, &spec).unwrap();
        let mut session = Session::new(sim, journal, &[]).unwrap();
        let mut apps = Vec::new();
        for k in 0..6 {
            let release = Time::secs(30.0 + 45.0 * k as f64);
            let (id, stamped) = session
                .submit(submission(k), Some(release), Time::ZERO)
                .unwrap()
                .unwrap();
            assert_eq!(id, k);
            apps.push(submission(k).into_app(id, stamped));
            // Drive a little between submissions, as a live daemon would.
            session.advance(Time::secs(20.0 + 40.0 * k as f64)).unwrap();
        }
        let (outcome, accepted) = session.finish().unwrap();
        assert_eq!(accepted, 6);

        // Reference: the closed-form stream over the same arrivals.
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let reference = simulate_stream(
            &spec.platform,
            apps.iter().cloned(),
            policy.as_mut(),
            &spec.config,
        )
        .unwrap();
        assert_outcomes_bit_identical(&outcome, &reference);

        // Session 2: resume from the journal session 1 wrote and finish
        // without any further submissions.
        let recovered = Journal::load(&path).unwrap();
        assert_eq!(recovered.arrivals, apps);
        let mut policy = recovered
            .spec
            .policy
            .build_online(&recovered.spec.platform)
            .unwrap();
        let sim = Simulation::open(
            &recovered.spec.platform,
            policy.as_mut(),
            &recovered.spec.config,
        )
        .unwrap();
        let journal = Journal::reopen(&path, &recovered).unwrap();
        let session = Session::new(sim, journal, &recovered.arrivals).unwrap();
        let (resumed, accepted) = session.finish().unwrap();
        assert_eq!(accepted, 6);
        assert_outcomes_bit_identical(&resumed, &reference);
    }

    fn assert_outcomes_bit_identical(a: &SimOutcome, b: &SimOutcome) {
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_time.get().to_bits(), b.end_time.get().to_bits());
        assert_eq!(
            a.report.sys_efficiency.to_bits(),
            b.report.sys_efficiency.to_bits()
        );
        assert_eq!(a.report.dilation.to_bits(), b.report.dilation.to_bits());
        assert_eq!(a.report.per_app.len(), b.report.per_app.len());
        for (x, y) in a.report.per_app.iter().zip(&b.report.per_app) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish.get().to_bits(), y.finish.get().to_bits());
            assert_eq!(x.rho_tilde.to_bits(), y.rho_tilde.to_bits());
        }
    }

    #[test]
    fn auto_release_stamps_monotonically_and_past_the_engine_clock() {
        let spec = spec();
        let path = tmp("stamp.jsonl");
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
        let journal = Journal::create(&path, &spec).unwrap();
        let mut session = Session::new(sim, journal, &[]).unwrap();

        // Auto-stamped at t=0: strictly past the engine clock.
        let (_, r0) = session
            .submit(submission(0), None, Time::ZERO)
            .unwrap()
            .unwrap();
        assert!(r0 > Time::ZERO);
        // A later virtual clock dominates.
        let (_, r1) = session
            .submit(submission(1), None, Time::secs(100.0))
            .unwrap()
            .unwrap();
        assert!(r1.approx_eq(Time::secs(100.0)));
        // A stalled virtual clock cannot stamp before an earlier release.
        let (_, r2) = session
            .submit(submission(2), None, Time::secs(50.0))
            .unwrap()
            .unwrap();
        assert!(r2 >= r1);
        // Drive past the releases, then stamp again: still accepted.
        session.advance(Time::secs(150.0)).unwrap();
        let (_, r3) = session
            .submit(submission(3), None, Time::secs(150.0))
            .unwrap()
            .unwrap();
        assert!(r3 > session_now(&session));
        session.finish().unwrap();

        fn session_now(session: &Session<'_>) -> Time {
            Time::secs(session.status(Time::ZERO).engine_secs)
        }
    }

    #[test]
    fn rejected_submissions_do_not_reach_the_journal() {
        let spec = spec();
        let path = tmp("reject.jsonl");
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
        let journal = Journal::create(&path, &spec).unwrap();
        let mut session = Session::new(sim, journal, &[]).unwrap();

        // Infeasible processor demand: engine rejects, journal untouched.
        let monster =
            AppSubmission::parse_json(r#"{"procs": 999999999, "work": 1.0, "vol": 1.0}"#).unwrap();
        let err = session.submit(monster, None, Time::ZERO).unwrap_err();
        assert!(err.contains("processors"), "{err}");
        assert_eq!(session.accepted(), 0);

        // An explicit release behind the engine clock: rejected too.
        session
            .submit(submission(0), Some(Time::secs(10.0)), Time::ZERO)
            .unwrap()
            .unwrap();
        session.advance(Time::secs(50.0)).unwrap();
        let err = session
            .submit(submission(1), Some(Time::secs(5.0)), Time::ZERO)
            .unwrap_err();
        assert!(err.contains("clock"), "{err}");
        assert_eq!(session.accepted(), 1);

        // Draining refuses everything.
        session.drain(Time::secs(60.0)).unwrap();
        let err = session
            .submit(submission(2), None, Time::secs(60.0))
            .unwrap_err();
        assert!(err.contains("draining"), "{err}");
        assert!(session.status(Time::secs(60.0)).draining);
    }

    #[test]
    fn metrics_count_journal_writes_and_refresh_queue_depths() {
        let spec = spec();
        let path = tmp("metrics.jsonl");
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
        let journal = Journal::create(&path, &spec).unwrap();
        let mut session = Session::new(sim, journal, &[]).unwrap();

        for k in 0..3 {
            session
                .submit(submission(k), Some(Time::secs(10.0 + k as f64)), Time::ZERO)
                .unwrap()
                .unwrap();
        }
        session.checkpoint().unwrap();
        // A rejection (draining closes admission) counts but never
        // reaches the journal histograms.
        session.drain(Time::secs(1.0)).unwrap();
        let _ = session.submit(submission(3), None, Time::secs(1.0));

        let snap = session.metrics_snapshot(Time::secs(1.0));
        assert_eq!(
            snap.histogram("serve.journal.append.ns").unwrap().count,
            3,
            "one append sample per acknowledged arrival"
        );
        assert_eq!(
            snap.histogram("serve.journal.fsync.ns").unwrap().count,
            2,
            "checkpoint + drain each fsync once"
        );
        assert_eq!(snap.counter("serve.requests.rejected"), Some(1));
        assert_eq!(snap.gauge("serve.engine.journaled"), Some(3));
        assert_eq!(snap.gauge("serve.engine.queued"), Some(3));
    }

    /// A fresh session's `metrics` reply, byte for byte: the whole
    /// catalog (3 counters, 4 gauges, 7 histograms) in name order, every
    /// value zero and every histogram empty.
    #[test]
    fn a_fresh_sessions_metrics_line_is_the_whole_catalog_in_name_order() {
        let spec = spec();
        let path = tmp("catalog.jsonl");
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
        let journal = Journal::create(&path, &spec).unwrap();
        let session = Session::new(sim, journal, &[]).unwrap();
        let empty = r#"{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}"#;
        let want = format!(
            concat!(
                r#"{{"ok":"metrics","metrics":{{"counters":{{"serve.requests":0,"#,
                r#""serve.requests.parse_errors":0,"serve.requests.rejected":0}},"#,
                r#""gauges":{{"serve.engine.journaled":0,"serve.engine.live":0,"#,
                r#""serve.engine.pending":0,"serve.engine.queued":0}},"#,
                r#""histograms":{{"serve.journal.append.ns":{e},"#,
                r#""serve.journal.fsync.ns":{e},"serve.request.metrics.ns":{e},"#,
                r#""serve.request.other.ns":{e},"serve.request.status.ns":{e},"#,
                r#""serve.request.submit.ns":{e},"serve.request.telemetry.ns":{e}}}}}}}"#,
            ),
            e = empty
        );
        assert_eq!(
            crate::protocol::metrics_line(&session.metrics_snapshot(Time::ZERO)),
            want
        );
    }

    /// A decision trace attached to the engine picks up the session's
    /// journal-flush events — unsynced per acknowledged submit, synced
    /// at checkpoint — interleaved with the engine's own decisions.
    #[test]
    fn journal_flushes_land_in_the_decision_trace() {
        let spec = spec();
        let path = tmp("trace.jsonl");
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let mut sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
        sim.enable_decision_trace(4096);
        let journal = Journal::create(&path, &spec).unwrap();
        let mut session = Session::new(sim, journal, &[]).unwrap();
        for k in 0..2 {
            session
                .submit(submission(k), Some(Time::secs(10.0 + k as f64)), Time::ZERO)
                .unwrap()
                .unwrap();
        }
        session.checkpoint().unwrap();
        let (outcome, _) = session.finish().unwrap();
        let trace = outcome.decision_trace.expect("trace was attached");
        let flushes: Vec<_> = trace
            .records()
            .filter(|r| r.event.kind() == "journal_flush")
            .collect();
        assert_eq!(flushes.len(), 3, "2 submits + 1 checkpoint");
        let synced = flushes
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    iosched_sim::TraceEvent::JournalFlush { synced: true, .. }
                )
            })
            .count();
        assert_eq!(synced, 1);
        // The engine's own decisions are in there too.
        assert!(trace.records().any(|r| r.event.kind() == "admission"));
        assert!(trace.records().any(|r| r.event.kind() == "retirement"));
    }

    #[test]
    fn fresh_samples_stream_the_closed_intervals_exactly_once() {
        let spec = spec();
        let path = tmp("samples.jsonl");
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
        let journal = Journal::create(&path, &spec).unwrap();
        let mut session = Session::new(sim, journal, &[]).unwrap();
        assert!(session.fresh_samples().is_empty());

        for k in 0..3 {
            session
                .submit(submission(k), Some(Time::secs(10.0 + k as f64)), Time::ZERO)
                .unwrap()
                .unwrap();
        }
        session.advance(Time::secs(500.0)).unwrap();
        let first = session.fresh_samples();
        assert!(!first.is_empty());
        // Chronological, non-overlapping, and drained exactly once.
        for pair in first.windows(2) {
            assert!(pair[0].end <= pair[1].start || pair[0].end.approx_eq(pair[1].start));
        }
        assert!(session.fresh_samples().is_empty());
        session.advance(Time::secs(5000.0)).unwrap();
        let second = session.fresh_samples();
        if let (Some(last), Some(next)) = (first.last(), second.first()) {
            assert!(last.end.approx_le(next.start) || last.end.approx_eq(next.start));
        }
        session.finish().unwrap();
    }

    /// A release at `1e22` s is accepted and journaled like any other,
    /// so `finish` must return on it.
    #[test]
    fn far_future_release_finishes() {
        let spec = spec();
        let path = tmp("far.jsonl");
        let mut policy = spec.policy.build_online(&spec.platform).unwrap();
        let sim = Simulation::open(&spec.platform, policy.as_mut(), &spec.config).unwrap();
        let journal = Journal::create(&path, &spec).unwrap();
        let mut session = Session::new(sim, journal, &[]).unwrap();
        let release = Time::secs(1e22);
        let (id, stamped) = session
            .submit(submission(0), Some(release), Time::ZERO)
            .unwrap()
            .unwrap();
        assert_eq!((id, stamped), (0, release));
        let (outcome, accepted) = session.finish().unwrap();
        assert_eq!(accepted, 1);
        assert!(outcome.end_time >= release, "end {}", outcome.end_time);
    }
}

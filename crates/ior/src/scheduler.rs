//! The scheduler thread: the §5.1 "one separate thread acts as the
//! scheduler and receives I/O requests for all groups in IOR".
//!
//! The thread owns the (fluid) parallel file system. It sleeps until
//! either a message arrives (a new I/O request) or the earliest predicted
//! transfer completion, then advances every in-flight transfer by the real
//! elapsed (scaled) time, completes what finished, re-runs the installed
//! policy over the outstanding requests, and picks the next wake-up. All
//! latencies of this loop — channel hops, wake-up jitter, allocation time
//! — are *real* and show up in the measured overhead (Fig. 14).

use crate::protocol::{ToApp, ToScheduler};
use iosched_core::policy::{AllocScratch, AppState, OnlinePolicy, StateBuffer};
use iosched_model::{AppProgress, AppSpec, Bw, Bytes, Platform, Time};
use iosched_sim::burst_buffer::BurstBufferState;
use iosched_sim::VirtualClock;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// A transfer is fluid-complete when less than one byte remains.
const DONE_THRESHOLD: f64 = 1.0;

/// Fallback poll interval when no completion can be predicted (stalled
/// transfers waiting behind others).
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Counters reported by the scheduler thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Requests received.
    pub requests: usize,
    /// Transfers completed.
    pub completions: usize,
    /// Policy re-allocations performed.
    pub reallocations: usize,
    /// recv_timeout wake-ups (timer or message).
    pub wakeups: usize,
}

struct Outstanding {
    remaining: Bytes,
    requested_at: Time,
    started: bool,
    rate: Bw, // effective delivered rate
}

/// Scheduler-thread state and main loop.
pub struct Scheduler<'a> {
    platform: &'a Platform,
    clock: VirtualClock,
    progress: Vec<AppProgress>,
    last_io_end: Vec<Time>,
    outstanding: Vec<Option<Outstanding>>,
    bb: Option<BurstBufferState>,
    drain_bw: Bw,
    last_advance: Time,
    allow_all: bool,
    stats: SchedulerStats,
    /// Reused policy-snapshot arena (same discipline as the fluid
    /// simulator's engine: refilled in place at every re-allocation).
    snapshot: StateBuffer,
    /// Reused decision workspace of `OnlinePolicy::allocate_into`.
    scratch: AllocScratch,
    /// Reused scratch: indices with an outstanding request.
    pending: Vec<usize>,
}

impl<'a> Scheduler<'a> {
    /// Build the scheduler for `specs`.
    ///
    /// # Panics
    /// Panics when `use_burst_buffer` is set without a platform burst
    /// buffer, when `specs` is not in `AppId` order (`specs[k]` must be
    /// `App(k)`: requests are routed by id), or when an application has
    /// a zero-volume instance (IOR groups always write).
    #[must_use]
    pub fn new(
        platform: &'a Platform,
        specs: &[AppSpec],
        clock: VirtualClock,
        use_burst_buffer: bool,
        allow_all: bool,
    ) -> Self {
        for (k, spec) in specs.iter().enumerate() {
            assert_eq!(spec.id().0, k, "IOR rosters must be in AppId order");
            assert!(
                spec.pattern().iter().all(|i| i.vol.get() > 0.0),
                "{}: IOR applications must write in every iteration",
                spec.id()
            );
        }
        let bb = use_burst_buffer.then(|| {
            BurstBufferState::new(
                platform
                    .burst_buffer
                    .expect("use_burst_buffer requires a platform burst buffer"),
            )
        });
        Self {
            platform,
            clock,
            progress: specs
                .iter()
                .map(|s| AppProgress::new(s, platform))
                .collect(),
            last_io_end: specs.iter().map(AppSpec::release).collect(),
            outstanding: specs.iter().map(|_| None).collect(),
            bb,
            drain_bw: platform.total_bw,
            last_advance: Time::ZERO,
            allow_all,
            stats: SchedulerStats::default(),
            snapshot: StateBuffer::new(),
            scratch: AllocScratch::new(),
            pending: Vec::with_capacity(specs.len()),
        }
    }

    /// Run until every application finished; returns the progress records
    /// (carrying `d_k`, ρ, ρ̃) and the loop counters.
    #[must_use]
    pub fn run(
        mut self,
        rx: &Receiver<ToScheduler>,
        complete_tx: &[Sender<ToApp>],
        policy: &mut dyn OnlinePolicy,
    ) -> (Vec<AppProgress>, SchedulerStats) {
        loop {
            let now = self.clock.now();
            self.advance_to(now);
            self.complete_ready(now, complete_tx);
            if self.progress.iter().all(AppProgress::is_finished) {
                break;
            }
            self.reallocate(now, policy);

            let deadline = self.next_wakeup(now);
            self.stats.wakeups += 1;
            match rx.recv_timeout(deadline) {
                Ok(ToScheduler::Request { app, vol, at }) => {
                    self.stats.requests += 1;
                    self.outstanding[app.0] = Some(Outstanding {
                        remaining: vol,
                        requested_at: at,
                        started: false,
                        rate: Bw::ZERO,
                    });
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // All application threads are gone; whatever is still
                    // outstanding can never be re-requested.
                    break;
                }
            }
        }
        (self.progress, self.stats)
    }

    /// Decay in-flight volumes (and the burst-buffer level) over the real
    /// elapsed scaled time.
    fn advance_to(&mut self, now: Time) {
        let dt = (now - self.last_advance).max(Time::ZERO);
        if dt.get() <= 0.0 {
            return;
        }
        let inflow: Bw = self.outstanding.iter().flatten().map(|o| o.rate).sum();
        for slot in self.outstanding.iter_mut().flatten() {
            if slot.rate.get() > 0.0 {
                slot.remaining = (slot.remaining - slot.rate * dt).max(Bytes::ZERO);
                slot.started = true;
            }
        }
        if let Some(bb) = &mut self.bb {
            bb.advance(dt, inflow, self.drain_bw);
        }
        self.last_advance = now;
    }

    /// Send `Complete` for every transfer that reached the threshold.
    fn complete_ready(&mut self, now: Time, complete_tx: &[Sender<ToApp>]) {
        for (idx, slot) in self.outstanding.iter_mut().enumerate() {
            let done = slot
                .as_ref()
                .is_some_and(|o| o.remaining.get() <= DONE_THRESHOLD);
            if done {
                *slot = None;
                self.progress[idx].complete_instance();
                self.last_io_end[idx] = now;
                if self.progress[idx].completed() == self.progress[idx].total_instances() {
                    self.progress[idx].finish(now);
                }
                self.stats.completions += 1;
                // The application may have crashed; a send error only
                // means nobody is waiting anymore.
                let _ = complete_tx[idx].send(ToApp::Complete);
            }
        }
    }

    /// Re-run the policy over the outstanding requests.
    fn reallocate(&mut self, now: Time, policy: &mut dyn OnlinePolicy) {
        let capacity = match &self.bb {
            Some(b) => b.ingest_capacity(self.platform.total_bw),
            None => self.platform.total_bw,
        };
        self.pending.clear();
        self.pending
            .extend((0..self.outstanding.len()).filter(|&i| self.outstanding[i].is_some()));
        if self.pending.is_empty() {
            // Same rule as the fluid engine: a burst buffer still draining
            // the interleaved data of earlier writers contends on the disk
            // tier even though nobody is ingesting.
            self.drain_bw = match &mut self.bb {
                Some(b) => {
                    self.platform.total_bw * self.platform.interference.factor(b.note_streams(0))
                }
                None => self.platform.total_bw,
            };
            return;
        }
        self.snapshot.clear();
        for &i in &self.pending {
            let o = self.outstanding[i].as_ref().expect("filtered Some");
            self.snapshot.push(AppState {
                id: self.progress[i].id(),
                procs: self.progress[i].procs(),
                dilation_ratio: self.progress[i].dilation_ratio(now),
                syseff_key: self.progress[i].syseff_key(now),
                last_io_end: self.last_io_end[i],
                io_requested_at: o.requested_at,
                started_io: o.started,
                max_bw: (self.platform.proc_bw * self.progress[i].procs() as f64).min(capacity),
            });
        }
        let ctx = self.snapshot.context(now, capacity);
        if self.allow_all {
            // Overhead-measurement mode (§5.1): "the scheduler always
            // allows all requests to I/O" — everyone gets its card limit.
            let grants = &mut self.scratch.alloc.grants;
            grants.clear();
            grants.extend(ctx.pending.iter().map(|s| (s.id, s.max_bw)));
        } else {
            policy.allocate_into(&ctx, &mut self.scratch);
            debug_assert!(
                self.scratch.alloc.validate(&ctx).is_ok(),
                "invalid allocation"
            );
        }
        let alloc = &self.scratch.alloc;
        self.stats.reallocations += 1;

        let active = alloc.grants.iter().filter(|(_, b)| b.get() > 0.0).count();
        let contended = self.platform.interference.factor(active);
        let ingest_factor = match &self.bb {
            Some(b) if !b.is_throttled() => 1.0,
            _ => contended,
        };
        self.drain_bw = match &mut self.bb {
            Some(b) => {
                let streams = b.note_streams(active);
                self.platform.total_bw * self.platform.interference.factor(streams)
            }
            None => self.platform.total_bw,
        };
        for (state, &i) in ctx.pending.iter().zip(&self.pending) {
            if let Some(o) = self.outstanding[i].as_mut() {
                o.rate = alloc.granted(state.id) * ingest_factor;
            }
        }
    }

    /// Real-time deadline for the next predicted event.
    fn next_wakeup(&self, now: Time) -> Duration {
        let mut next: Option<Time> = None;
        for o in self.outstanding.iter().flatten() {
            if o.rate.get() > 0.0 {
                let t = o.remaining / o.rate;
                next = Some(next.map_or(t, |n: Time| n.min(t)));
            }
        }
        if let Some(bb) = &self.bb {
            let inflow: Bw = self.outstanding.iter().flatten().map(|o| o.rate).sum();
            if let Some(t) = bb.next_event_in(inflow, self.drain_bw) {
                next = Some(next.map_or(t, |n: Time| n.min(t)));
            }
        }
        let _ = now;
        match next {
            Some(t) => self.clock.wall(t).max(Duration::from_micros(50)),
            None => IDLE_POLL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_core::heuristics::RoundRobin;
    use iosched_model::AppId;
    use std::sync::mpsc::channel;

    fn platform() -> Platform {
        Platform::new("t", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0))
    }

    #[test]
    fn scheduler_completes_injected_requests() {
        let p = platform();
        let spec = AppSpec::periodic(0, Time::ZERO, 100, Time::secs(1.0), Bytes::gib(5.0), 2);
        let clock = VirtualClock::new(Time::ZERO, 2_000.0);
        let sched = Scheduler::new(&p, &[spec], clock, false, false);
        let (tx, rx) = channel();
        let (ctx0, crx0) = channel();

        // Drive the protocol from this thread.
        let driver = std::thread::spawn(move || {
            for _ in 0..2 {
                tx.send(ToScheduler::Request {
                    app: AppId(0),
                    vol: Bytes::gib(5.0),
                    at: Time::ZERO,
                })
                .unwrap();
                let ToApp::Complete = crx0.recv().unwrap();
            }
            // Hanging up ends the scheduler's loop.
        });

        let mut policy = RoundRobin;
        let (progress, stats) = sched.run(&rx, &[ctx0], &mut policy);
        driver.join().unwrap();
        assert!(progress[0].is_finished());
        assert_eq!(stats.completions, 2);
        assert_eq!(stats.requests, 2);
        assert!(stats.reallocations >= 2);
    }

    #[test]
    #[should_panic(expected = "must write")]
    fn zero_volume_instances_rejected() {
        let p = platform();
        let spec = AppSpec::periodic(0, Time::ZERO, 10, Time::secs(1.0), Bytes::ZERO, 1);
        let clock = VirtualClock::new(Time::ZERO, 1_000.0);
        let _ = Scheduler::new(&p, &[spec], clock, false, false);
    }
}

//! One IOR application group: the compute/request/wait loop of §5.1.
//!
//! "In addition, because IOR applications are communication-free, we
//! modified them to include some inter-processor communications at each
//! step […] an MPI_Reduce that adds the number of bytes written in the
//! last iteration." Here the compute phase (including that reduction) is
//! a scaled sleep; the I/O phase is the real request→grant→complete
//! round trip with the scheduler thread.

use crate::protocol::{ToApp, ToScheduler};
use iosched_model::{AppSpec, Time};
use iosched_sim::VirtualClock;
use std::sync::mpsc::{Receiver, Sender};
use std::thread::sleep;

/// Timestamped record of one application thread's run.
#[derive(Debug, Clone, Default)]
pub struct AppThreadLog {
    /// Simulated completion time of each I/O phase (scheduler-observed).
    pub io_completions: Vec<Time>,
    /// Total bytes the group asked to write (all requests issued).
    pub bytes_requested: f64,
}

/// Run one application group to completion.
///
/// Returns early (with a partial log) if the scheduler goes away.
#[must_use]
pub fn run_app(
    spec: &AppSpec,
    clock: VirtualClock,
    to_scheduler: &Sender<ToScheduler>,
    from_scheduler: &Receiver<ToApp>,
) -> AppThreadLog {
    let mut log = AppThreadLog::default();

    // Honour the release time.
    let release = spec.release();
    let now = clock.now();
    if release.approx_gt(now) {
        sleep(clock.wall(release - now));
    }

    for i in 0..spec.instance_count() {
        let inst = spec.instance(i);
        // Compute phase: dedicated resources, scaled sleep.
        sleep(clock.wall(inst.work));
        // I/O phase: request → block → complete.
        log.bytes_requested += inst.vol.get();
        let request = ToScheduler::Request {
            app: spec.id(),
            vol: inst.vol,
            at: clock.now(),
        };
        if to_scheduler.send(request).is_err() {
            return log; // scheduler gone
        }
        match from_scheduler.recv() {
            Ok(ToApp::Complete { at }) => log.io_completions.push(at),
            Err(_) => return log,
        }
    }
    let _ = to_scheduler.send(ToScheduler::Finished { app: spec.id() });
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::{AppId, Bytes};
    use std::sync::mpsc::channel;

    #[test]
    fn app_issues_one_request_per_instance() {
        let spec = AppSpec::periodic(0, Time::ZERO, 10, Time::secs(1.0), Bytes::gib(1.0), 3);
        let clock = VirtualClock::new(Time::ZERO, 10_000.0);
        let (to_sched, sched_rx) = channel();
        let (complete_tx, from_sched) = channel();

        // Fake scheduler granting instantly.
        let fake = std::thread::spawn(move || {
            let mut requests = 0;
            while let Ok(msg) = sched_rx.recv() {
                match msg {
                    ToScheduler::Request { vol, .. } => {
                        requests += 1;
                        assert!(vol.approx_eq(Bytes::gib(1.0)));
                        complete_tx
                            .send(ToApp::Complete {
                                at: Time::secs(requests as f64),
                            })
                            .unwrap();
                    }
                    ToScheduler::Finished { app } => {
                        assert_eq!(app, AppId(0));
                        break;
                    }
                }
            }
            requests
        });

        let log = run_app(&spec, clock, &to_sched, &from_sched);
        drop(to_sched);
        let requests = fake.join().unwrap();
        assert_eq!(requests, 3);
        assert_eq!(log.io_completions.len(), 3);
        assert!((log.bytes_requested - 3.0 * Bytes::gib(1.0).get()).abs() < 1.0);
    }

    #[test]
    fn app_survives_scheduler_disappearing() {
        let spec = AppSpec::periodic(0, Time::ZERO, 10, Time::secs(1.0), Bytes::gib(1.0), 5);
        let clock = VirtualClock::new(Time::ZERO, 100_000.0);
        let (to_sched, sched_rx) = channel();
        let (_complete_tx, from_sched) = channel::<ToApp>();
        drop(sched_rx); // scheduler never existed
        drop(_complete_tx);
        let log = run_app(&spec, clock, &to_sched, &from_sched);
        assert!(log.io_completions.is_empty());
    }
}

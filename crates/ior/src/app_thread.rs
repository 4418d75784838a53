//! One IOR application group: the compute/request/wait loop of §5.1.
//!
//! "In addition, because IOR applications are communication-free, we
//! modified them to include some inter-processor communications at each
//! step […] an MPI_Reduce that adds the number of bytes written in the
//! last iteration." Here the compute phase (including that reduction) is
//! a scaled sleep; the I/O phase is the real request→grant→complete
//! round trip with the scheduler thread.

use crate::protocol::{ToApp, ToScheduler};
use iosched_model::AppSpec;
use iosched_sim::VirtualClock;
use std::sync::mpsc::{Receiver, Sender};
use std::thread::sleep;

/// Run one application group to completion: one request per instance,
/// each answered by a `Complete` before the next compute phase starts.
///
/// Returns early if the scheduler goes away. Returning drops this
/// thread's sender; once every application has returned, the scheduler's
/// channel disconnects and its loop ends.
pub fn run_app(
    spec: &AppSpec,
    clock: VirtualClock,
    to_scheduler: &Sender<ToScheduler>,
    from_scheduler: &Receiver<ToApp>,
) {
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
        let request = ToScheduler::Request {
            app: spec.id(),
            vol: inst.vol,
            at: clock.now(),
        };
        if to_scheduler.send(request).is_err() || from_scheduler.recv().is_err() {
            return; // scheduler gone
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::{AppId, Bytes, Time};
    use std::sync::mpsc::channel;

    #[test]
    fn app_issues_one_request_per_instance() {
        let spec = AppSpec::periodic(0, Time::ZERO, 10, Time::secs(1.0), Bytes::gib(1.0), 3);
        let clock = VirtualClock::new(Time::ZERO, 10_000.0);
        let (to_sched, sched_rx) = channel();
        let (complete_tx, from_sched) = channel();

        // Fake scheduler granting instantly, until the application hangs
        // up; it counts the requests it saw and the completions it sent.
        let fake = std::thread::spawn(move || {
            let (mut requests, mut bytes, mut completions) = (0, 0.0, 0);
            while let Ok(ToScheduler::Request { app, vol, .. }) = sched_rx.recv() {
                assert_eq!(app, AppId(0));
                requests += 1;
                bytes += vol.get();
                if complete_tx.send(ToApp::Complete).is_ok() {
                    completions += 1;
                }
            }
            (requests, bytes, completions)
        });

        run_app(&spec, clock, &to_sched, &from_sched);
        drop(to_sched);
        let (requests, bytes, completions) = fake.join().unwrap();
        assert_eq!(requests, 3);
        assert_eq!(completions, 3);
        assert!((bytes - 3.0 * Bytes::gib(1.0).get()).abs() < 1.0);
        // The application consumed every completion it was sent.
        assert!(from_sched.try_recv().is_err());
    }

    #[test]
    fn app_survives_scheduler_disappearing() {
        let spec = AppSpec::periodic(0, Time::ZERO, 10, Time::secs(1.0), Bytes::gib(1.0), 5);
        let clock = VirtualClock::new(Time::ZERO, 100_000.0);
        let (to_sched, sched_rx) = channel();
        let (complete_tx, from_sched) = channel::<ToApp>();
        drop(sched_rx); // scheduler never existed
        drop(complete_tx);
        // Returns instead of blocking on a completion that never comes.
        run_app(&spec, clock, &to_sched, &from_sched);
    }
}

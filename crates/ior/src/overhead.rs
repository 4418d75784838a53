//! Scheduler-overhead measurement (Fig. 14).
//!
//! "This overhead was computed by comparing the execution time of one
//! application running the original IOR benchmark, with the execution
//! time of our modified version of the IOR benchmark that includes the
//! scheduler. In order to fairly compare […] the scheduler always allows
//! all requests to I/O."
//!
//! The *unscheduled* run executes the same iteration loop with I/O as a
//! plain scaled sleep of the dedicated transfer time (no scheduler, no
//! channels); the *scheduled* run uses the full request/grant protocol in
//! allow-all mode. The difference is pure protocol cost: channel hops,
//! scheduler wake-ups, allocation bookkeeping.

use crate::harness::{run_ior, start_clock, IorConfig};
use iosched_core::heuristics::RoundRobin;
use iosched_model::{AppSpec, ModelError, Platform};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Result of one overhead comparison.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Wall time of the scheduler-enabled run.
    pub scheduled: Duration,
    /// Wall time of the raw run.
    pub unscheduled: Duration,
    /// Relative execution-time overhead (`scheduled/unscheduled − 1`,
    /// clamped at 0 — timer noise can make it marginally negative).
    pub overhead_frac: f64,
}

/// Run the iteration loops without any scheduler: compute sleep plus a
/// dedicated-mode I/O sleep per instance, one thread per application.
///
/// # Panics
/// Panics unless `speedup` is positive and finite.
#[must_use]
pub fn run_unscheduled(platform: &Platform, apps: &[AppSpec], speedup: f64) -> Duration {
    let started = Instant::now();
    let clock = start_clock(speedup);
    std::thread::scope(|scope| {
        for spec in apps {
            scope.spawn(move || {
                let release = spec.release();
                let now = clock.now();
                if release.approx_gt(now) {
                    sleep(clock.wall(release - now));
                }
                for i in 0..spec.instance_count() {
                    let inst = spec.instance(i);
                    sleep(clock.wall(inst.work));
                    sleep(clock.wall(platform.dedicated_io_time(spec.procs(), inst.vol)));
                }
            });
        }
    });
    started.elapsed()
}

/// Measure the protocol overhead on one scenario.
pub fn measure_overhead(config: &IorConfig) -> Result<OverheadReport, ModelError> {
    let mut allow_all = config.clone();
    allow_all.allow_all = true;
    // Policy is irrelevant in allow-all mode; RoundRobin is a placeholder.
    let scheduled = run_ior(&allow_all, &mut RoundRobin)?.wall;
    let unscheduled = run_unscheduled(&config.platform, &config.apps, config.speedup);
    let overhead_frac = if unscheduled.as_secs_f64() > 0.0 {
        (scheduled.as_secs_f64() / unscheduled.as_secs_f64() - 1.0).max(0.0)
    } else {
        0.0
    };
    Ok(OverheadReport {
        scheduled,
        unscheduled,
        overhead_frac,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::{Bytes, Time};

    fn apps() -> Vec<AppSpec> {
        vec![
            AppSpec::periodic(0, Time::ZERO, 256, Time::secs(20.0), Bytes::gib(40.0), 3),
            AppSpec::periodic(1, Time::ZERO, 512, Time::secs(20.0), Bytes::gib(40.0), 3),
        ]
    }

    #[test]
    fn unscheduled_run_takes_about_the_dedicated_span() {
        let p = Platform::vesta();
        let apps = apps();
        let speedup = 2_000.0;
        let wall = run_unscheduled(&p, &apps, speedup);
        // App 1 (512 nodes → 10 GiB/s): 3 × (20 + 4) = 72 sim s;
        // app 0 (256 nodes → 10 GiB/s): same span. 72 s / 2000 = 36 ms.
        let expected = 0.036;
        let got = wall.as_secs_f64();
        assert!(
            got > expected * 0.9 && got < expected * 3.0,
            "wall {got}s vs expected ≈{expected}s"
        );
    }

    /// Both entry points refuse a clock that cannot wake their threads
    /// (frozen, backwards or undefined) before spawning any.
    #[test]
    fn entry_points_reject_a_speedup_that_is_not_positive_and_finite() {
        for speedup in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = IorConfig::new(Platform::vesta(), apps());
            cfg.speedup = speedup;
            let scheduled = std::panic::catch_unwind(|| run_ior(&cfg, &mut RoundRobin));
            assert!(scheduled.is_err(), "run_ior accepted speedup {speedup}");
            let raw =
                std::panic::catch_unwind(|| run_unscheduled(&cfg.platform, &cfg.apps, speedup));
            assert!(raw.is_err(), "run_unscheduled accepted speedup {speedup}");
        }
    }

    #[test]
    fn overhead_is_small_and_nonnegative() {
        let p = Platform::vesta();
        let mut cfg = IorConfig::new(p, apps());
        cfg.speedup = 1_000.0; // coarser scale → relatively lower noise
        let report = measure_overhead(&cfg).unwrap();
        assert!(report.overhead_frac >= 0.0);
        // The paper sees 1–5.3 %; allow generous CI headroom.
        assert!(
            report.overhead_frac < 0.30,
            "overhead {:.1}% implausibly high",
            report.overhead_frac * 100.0
        );
    }
}

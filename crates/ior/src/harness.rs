//! End-to-end harness: spawn the application-group threads and the
//! scheduler thread, run to completion, report the paper's objectives.

use crate::app_thread::run_app;
use crate::protocol::{ToApp, ToScheduler};
use crate::scheduler::{Scheduler, SchedulerStats};
use iosched_core::policy::OnlinePolicy;
use iosched_model::{
    app::validate_scenario, AppOutcome, AppSpec, ModelError, ObjectiveReport, Platform, Time,
};
use iosched_sim::VirtualClock;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct IorConfig {
    /// The (Vesta-like) platform.
    pub platform: Platform,
    /// Application groups.
    pub apps: Vec<AppSpec>,
    /// Simulated seconds per real second.
    pub speedup: f64,
    /// Route I/O through the platform's burst buffer.
    pub use_burst_buffer: bool,
    /// Overhead-measurement mode: the scheduler grants every request
    /// immediately at full card bandwidth (§5.1's baseline scheduler).
    pub allow_all: bool,
}

impl IorConfig {
    /// A config with the default scaling (2,000× — a 1,000-second Vesta
    /// run takes half a real second).
    #[must_use]
    pub fn new(platform: Platform, apps: Vec<AppSpec>) -> Self {
        Self {
            platform,
            apps,
            speedup: 2_000.0,
            use_burst_buffer: false,
            allow_all: false,
        }
    }
}

/// Result of one harness run.
#[derive(Debug, Clone)]
pub struct IorOutcome {
    /// SysEfficiency / Dilation / per-application outcomes.
    pub report: ObjectiveReport,
    /// Real wall-clock duration of the run.
    pub wall: Duration,
    /// Scheduler-thread counters.
    pub stats: SchedulerStats,
}

/// The harness clock: `speedup` simulated seconds per wall second,
/// starting now at simulated time zero.
///
/// # Panics
/// Panics unless `speedup` is positive and finite: a frozen (or
/// backwards) clock would never wake the application threads.
pub(crate) fn start_clock(speedup: f64) -> VirtualClock {
    assert!(
        speedup > 0.0 && speedup.is_finite(),
        "speedup must be positive and finite, got {speedup}"
    );
    VirtualClock::new(Time::ZERO, speedup)
}

/// Run the modified-IOR experiment with `policy` arbitrating I/O.
///
/// # Panics
/// Panics unless `config.speedup` is positive and finite.
pub fn run_ior(
    config: &IorConfig,
    policy: &mut dyn OnlinePolicy,
) -> Result<IorOutcome, ModelError> {
    validate_scenario(&config.platform, &config.apps)?;
    if config.use_burst_buffer && config.platform.burst_buffer.is_none() {
        return Err(ModelError::InvalidPlatform(
            "use_burst_buffer requires a platform burst buffer".into(),
        ));
    }
    // The scheduler keys requests by `AppId`, so every per-application
    // table (progress, completion channels) runs in `AppId` order;
    // `validate_scenario` accepts any permutation of the dense ids.
    let mut apps = config.apps.clone();
    apps.sort_by_key(AppSpec::id);
    let started = Instant::now();
    let clock = start_clock(config.speedup);
    let (to_sched, sched_rx) = channel::<ToScheduler>();
    let mut complete_txs = Vec::with_capacity(apps.len());
    let mut complete_rxs = Vec::with_capacity(apps.len());
    for _ in &apps {
        let (tx, rx) = channel::<ToApp>();
        complete_txs.push(tx);
        complete_rxs.push(rx);
    }

    let scheduler = Scheduler::new(
        &config.platform,
        &apps,
        clock,
        config.use_burst_buffer,
        config.allow_all,
    );

    let (progress, stats) = std::thread::scope(|scope| {
        for (spec, rx) in apps.iter().zip(complete_rxs) {
            let to_sched = to_sched.clone();
            scope.spawn(move || run_app(spec, clock, &to_sched, &rx));
        }
        drop(to_sched); // the scheduler's recv disconnects once all apps exit
        scheduler.run(&sched_rx, &complete_txs, policy)
    });

    let per_app: Vec<AppOutcome> = progress
        .iter()
        .map(|p| {
            let d = p.finish_time().unwrap_or_else(|| clock.now()); // defensive: unfinished app
            AppOutcome {
                id: p.id(),
                procs: p.procs(),
                release: p.release(),
                finish: d,
                rho: p.rho(d),
                rho_tilde: p.rho_tilde(d),
            }
        })
        .collect();

    Ok(IorOutcome {
        report: ObjectiveReport::from_outcomes(per_app),
        wall: started.elapsed(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_core::heuristics::{MaxSysEff, MinDilation, Priority, RoundRobin};
    use iosched_model::{Bytes, Time};

    fn vesta_like() -> Platform {
        Platform::vesta()
    }

    /// Small scenario: 2 groups, 3 iterations, I/O ≈ 30 % of compute.
    fn small_apps() -> Vec<AppSpec> {
        vec![
            AppSpec::periodic(0, Time::ZERO, 256, Time::secs(20.0), Bytes::gib(60.0), 3),
            AppSpec::periodic(1, Time::ZERO, 512, Time::secs(20.0), Bytes::gib(60.0), 3),
        ]
    }

    fn fast_config(apps: Vec<AppSpec>) -> IorConfig {
        let mut c = IorConfig::new(vesta_like(), apps);
        c.speedup = 4_000.0;
        c
    }

    #[test]
    fn harness_runs_to_completion() {
        let cfg = fast_config(small_apps());
        let out = run_ior(&cfg, &mut RoundRobin).unwrap();
        assert_eq!(out.report.per_app.len(), 2);
        for o in &out.report.per_app {
            assert!(o.rho_tilde > 0.0, "{}: no progress", o.id);
            assert!(o.rho_tilde <= o.rho + 1e-9);
        }
        assert!(out.report.dilation >= 1.0);
        assert_eq!(out.stats.completions, 6);
        assert_eq!(out.stats.requests, 6);
    }

    #[test]
    fn dedicated_app_is_barely_dilated() {
        let apps = vec![AppSpec::periodic(
            0,
            Time::ZERO,
            256,
            Time::secs(20.0),
            Bytes::gib(60.0),
            3,
        )];
        let mut cfg = fast_config(apps);
        // Coarser scale: real sleeps of tens of ms dwarf scheduler noise
        // even when the whole workspace test suite runs in parallel.
        cfg.speedup = 1_000.0;
        let out = run_ior(&cfg, &mut MaxSysEff).unwrap();
        // Alone on the machine: dilation ≈ 1 (plus protocol overhead).
        assert!(
            out.report.dilation < 1.3,
            "dedicated run dilation {} too high",
            out.report.dilation
        );
    }

    #[test]
    fn priority_variant_runs_too() {
        let cfg = fast_config(small_apps());
        let out = run_ior(&cfg, &mut Priority::new(MinDilation)).unwrap();
        assert_eq!(out.stats.completions, 6);
    }

    #[test]
    fn burst_buffer_mode_requires_spec() {
        let mut cfg = fast_config(small_apps());
        cfg.use_burst_buffer = true;
        assert!(run_ior(&cfg, &mut RoundRobin).is_err());
        cfg.platform = cfg.platform.with_default_burst_buffer();
        let out = run_ior(&cfg, &mut RoundRobin).unwrap();
        assert_eq!(out.stats.completions, 6);
    }

    /// `validate_scenario` accepts any permutation of dense ids, so the
    /// harness must run one too. Tables indexed by roster position would
    /// send an out-of-order roster's completions to the wrong application
    /// thread, and the run would never return; the watchdog turns that
    /// into a failure instead of a stuck suite.
    #[test]
    fn roster_out_of_id_order_runs_to_completion() {
        let apps = vec![
            AppSpec::periodic(1, Time::ZERO, 512, Time::secs(20.0), Bytes::gib(60.0), 1),
            AppSpec::periodic(0, Time::ZERO, 256, Time::secs(20.0), Bytes::gib(60.0), 3),
        ];
        let cfg = fast_config(apps);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(run_ior(&cfg, &mut RoundRobin));
        });
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("run_ior hung or panicked")
            .unwrap();
        worker.join().expect("harness thread exits cleanly");
        assert_eq!(out.stats.requests, 4);
        assert_eq!(out.stats.completions, 4);
        assert_eq!(out.report.per_app.len(), 2);
        for o in &out.report.per_app {
            assert!(o.rho_tilde > 0.0, "{}: no progress", o.id);
        }
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        let apps = vec![AppSpec::periodic(
            0,
            Time::ZERO,
            5_000, // > Vesta's 2,048 nodes
            Time::secs(1.0),
            Bytes::gib(1.0),
            1,
        )];
        let cfg = fast_config(apps);
        assert!(run_ior(&cfg, &mut RoundRobin).is_err());
    }
}

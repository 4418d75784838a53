//! The wall-to-virtual clock of everything that runs the model against
//! real time: the serve daemon and the real-thread IOR harness.
//!
//! The clock maps wall time onto simulated time through an acceleration
//! factor: `virtual_now = base + accel · wall_elapsed`. Three regimes
//! matter:
//!
//! * `accel = 1` — real time: one simulated second per wall second, the
//!   mode a daemon fronting live clients would run.
//! * `accel > 1` — accelerated: a day-long workload drains in seconds,
//!   the mode CI, demos and the IOR harness use.
//! * `accel = 0` — frozen: the clock never moves, and a daemon's engine
//!   only runs at shutdown (`run_to_completion`). This is the fully
//!   deterministic mode — no wall-clock reading ever influences the
//!   trajectory, so a frozen session with explicit submission releases
//!   is bit-identical across machines and runs. The IOR harness rejects
//!   it: its threads would sleep forever.
//!
//! The clock only ever *reads* wall time; the engine itself remains a
//! pure function of the accepted arrival sequence. Wall time decides
//! *how far* the engine is driven between protocol messages — and by
//! the bounded-driving theorem pinned in the engine's tests
//! (`bounded_driving_matches_free_running`), *where* the drive pauses
//! never changes *what* it computes.

use iosched_model::Time;
use std::time::{Duration, Instant};

/// Monotonic wall→virtual time mapping.
#[derive(Debug, Clone, Copy)]
pub struct VirtualClock {
    base: Time,
    accel: f64,
    started: Instant,
}

impl VirtualClock {
    /// Start the clock at virtual instant `base`, advancing at `accel`
    /// virtual seconds per wall second from now on.
    #[must_use]
    pub fn new(base: Time, accel: f64) -> Self {
        Self {
            base,
            accel,
            started: Instant::now(),
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        if self.accel == 0.0 {
            return self.base;
        }
        self.base + Time::secs(self.started.elapsed().as_secs_f64() * self.accel)
    }

    /// Wall time the clock takes to advance by the virtual span `span`:
    /// zero for a span that is not positive, and [`Duration::MAX`] when
    /// it never will (a frozen clock) or the wait is too long for a
    /// `Duration`.
    #[must_use]
    pub fn wall(&self, span: Time) -> Duration {
        if span.get() <= 0.0 {
            return Duration::ZERO;
        }
        Duration::try_from_secs_f64(span.get() / self.accel).unwrap_or(Duration::MAX)
    }

    /// Wall time until the clock reaches virtual instant `t` (see
    /// [`VirtualClock::wall`]).
    #[must_use]
    pub fn wall_until(&self, t: Time) -> Duration {
        self.wall(t - self.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_clock_never_moves() {
        let clock = VirtualClock::new(Time::secs(42.0), 0.0);
        assert_eq!(clock.now().get().to_bits(), 42.0f64.to_bits());
        assert_eq!(clock.wall_until(Time::secs(100.0)), Duration::MAX);
        assert_eq!(clock.wall_until(Time::secs(42.0)), Duration::ZERO);
    }

    #[test]
    fn accelerated_clock_moves_forward_from_base() {
        let clock = VirtualClock::new(Time::secs(10.0), 1000.0);
        let a = clock.now();
        assert!(a.get() >= 10.0);
        std::thread::sleep(Duration::from_millis(2));
        let b = clock.now();
        assert!(b > a, "clock went backwards: {a} -> {b}");
        // A virtual instant 3600s ahead is at most 3.6 wall seconds away.
        let wall = clock.wall_until(b + Time::secs(3600.0));
        assert!(wall <= Duration::from_secs_f64(3.6), "{wall:?}");
    }

    #[test]
    fn clock_advances_with_speedup() {
        let clock = VirtualClock::new(Time::ZERO, 1_000.0);
        std::thread::sleep(Duration::from_millis(10));
        let t = clock.now();
        // 10 ms real × 1000 = 10 sim seconds (generous tolerance for CI).
        assert!(t.as_secs() >= 9.0, "clock too slow: {t}");
        assert!(t.as_secs() < 200.0, "clock absurdly fast: {t}");
    }

    #[test]
    fn conversion_roundtrip() {
        let clock = VirtualClock::new(Time::ZERO, 500.0);
        assert!((clock.wall(Time::secs(5.0)).as_secs_f64() - 0.01).abs() < 1e-9);
        assert_eq!(clock.wall(Time::secs(-5.0)), Duration::ZERO);
        assert_eq!(clock.wall(Time::ZERO), Duration::ZERO);
    }

    #[test]
    fn sleep_sim_sleeps_scaled() {
        let clock = VirtualClock::new(Time::ZERO, 10_000.0);
        let before = Instant::now();
        std::thread::sleep(clock.wall(Time::secs(50.0))); // 5 ms real
        assert!(before.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn far_future_waits_saturate() {
        // 1e22 virtual seconds at real time overflows a `Duration`; the
        // wait saturates instead of panicking.
        let clock = VirtualClock::new(Time::ZERO, 1.0);
        assert_eq!(clock.wall_until(Time::secs(1e22)), Duration::MAX);
        assert_eq!(clock.wall(Time::secs(f64::MAX)), Duration::MAX);
        assert_eq!(clock.wall(Time::INFINITY), Duration::MAX);
    }
}

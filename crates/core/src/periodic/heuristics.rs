//! The two insertion orders of §3.2.3.
//!
//! * **Insert-In-Schedule-Throu** "sorts the applications by non-decreasing
//!   `w(k)/time_io(k)` ratios. It schedules as many instances as possible
//!   of the first application before moving on to the second one."
//! * **Insert-In-Schedule-Cong** "dynamically sorts the applications by
//!   [their current periodic dilation] and always picks the [most dilated]
//!   one" — i.e. the application whose `n_per·(w + time_io)` is currently
//!   smallest (steady-state dilation is `T / (n_per·(w+time_io))`). The
//!   research report prints this rule as "non-increasing n_per(w + vol_io),
//!   pick the largest"; picking the *largest* would starve never-scheduled
//!   applications forever, so we implement the only reading consistent
//!   with the Dilation objective.

use super::builder::{PeriodicAppSpec, ScheduleBuilder};
use super::schedule::PeriodicSchedule;
use iosched_model::Platform;
use serde::{Deserialize, Serialize};

/// Which §3.2.3 insertion heuristic fills the period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InsertionHeuristic {
    /// Insert-In-Schedule-Throu (SysEfficiency-oriented).
    Throughput,
    /// Insert-In-Schedule-Cong (Dilation-oriented).
    Congestion,
}

impl InsertionHeuristic {
    /// Report name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Throughput => "insert-in-schedule-throu",
            Self::Congestion => "insert-in-schedule-cong",
        }
    }
}

/// Fill one period of length `period` with instances of `apps` using
/// `heuristic`, and return the resulting schedule.
#[must_use]
pub fn build_schedule(
    platform: &Platform,
    apps: &[PeriodicAppSpec],
    period: iosched_model::Time,
    heuristic: InsertionHeuristic,
) -> PeriodicSchedule {
    let mut builder = ScheduleBuilder::new(platform, apps, period);
    match heuristic {
        InsertionHeuristic::Throughput => {
            let mut order: Vec<usize> = (0..apps.len()).collect();
            order.sort_by(|&x, &y| {
                let rx = ratio(&apps[x], platform);
                let ry = ratio(&apps[y], platform);
                rx.total_cmp(&ry).then_with(|| apps[x].id.cmp(&apps[y].id))
            });
            for idx in order {
                while builder.try_insert(idx) {}
            }
        }
        InsertionHeuristic::Congestion => {
            let mut saturated = vec![false; apps.len()];
            loop {
                // Most dilated first: smallest n_per · (w + time_io).
                let next = (0..apps.len()).filter(|&i| !saturated[i]).min_by(|&x, &y| {
                    let kx = builder.n_per(x) as f64 * apps[x].span(platform).as_secs();
                    let ky = builder.n_per(y) as f64 * apps[y].span(platform).as_secs();
                    kx.total_cmp(&ky).then_with(|| apps[x].id.cmp(&apps[y].id))
                });
                let Some(idx) = next else { break };
                if !builder.try_insert(idx) {
                    saturated[idx] = true;
                }
            }
        }
    }
    builder.build()
}

/// The Throu sort key `w / time_io` (∞ for pure-compute applications —
/// they cost no bandwidth and are inserted last, where they always fit).
fn ratio(app: &PeriodicAppSpec, platform: &Platform) -> f64 {
    let tio = app.time_io(platform);
    if tio.get() <= 0.0 {
        f64::INFINITY
    } else {
        app.work / tio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::{AppId, Bw, Bytes, Time};

    fn platform() -> Platform {
        Platform::new("test", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0))
    }

    #[test]
    fn throughput_orders_by_io_intensity() {
        let p = platform();
        // App 0: w/tio = 8/2 = 4. App 1: w/tio = 2/2 = 1 (more I/O-bound).
        let apps = [
            PeriodicAppSpec::new(0, 100, Time::secs(8.0), Bytes::gib(20.0)),
            PeriodicAppSpec::new(1, 100, Time::secs(2.0), Bytes::gib(20.0)),
        ];
        let s = build_schedule(&p, &apps, Time::secs(12.0), InsertionHeuristic::Throughput);
        s.validate(&p).unwrap();
        // App 1 (ratio 1) is inserted first: compute [0,2), I/O [2,4);
        // then app 0: compute [0,8), I/O [8,10).
        assert!(s.plans[1].instances[0].io_start.approx_eq(Time::secs(2.0)));
        assert!(s.plans[0].instances[0].io_start.approx_eq(Time::secs(8.0)));
    }

    #[test]
    fn congestion_round_robins_instances() {
        let p = platform();
        let apps = [
            PeriodicAppSpec::new(0, 100, Time::secs(8.0), Bytes::gib(20.0)),
            PeriodicAppSpec::new(1, 100, Time::secs(8.0), Bytes::gib(20.0)),
        ];
        let s = build_schedule(&p, &apps, Time::secs(24.0), InsertionHeuristic::Congestion);
        s.validate(&p).unwrap();
        // Identical apps must end with (nearly) identical instance counts.
        let n0 = s.n_per(AppId(0));
        let n1 = s.n_per(AppId(1));
        assert!(n0 >= 1 && n1 >= 1);
        assert!((n0 as i64 - n1 as i64).abs() <= 1, "n0={n0} n1={n1}");
    }

    #[test]
    fn congestion_never_starves_an_app_that_fits() {
        let p = platform();
        // One very cheap app and one expensive app; the cheap one must not
        // absorb the whole period before the expensive one gets a slot.
        let apps = [
            PeriodicAppSpec::new(0, 100, Time::secs(1.0), Bytes::gib(2.0)),
            PeriodicAppSpec::new(1, 100, Time::secs(30.0), Bytes::gib(100.0)),
        ];
        let span1 = apps[1].span(&p); // 30 + 10 = 40 s
        let s = build_schedule(&p, &apps, span1 * 1.5, InsertionHeuristic::Congestion);
        s.validate(&p).unwrap();
        assert!(s.n_per(AppId(1)) >= 1, "expensive app must be scheduled");
        assert!(s.n_per(AppId(0)) >= 1);
    }

    #[test]
    fn both_heuristics_produce_valid_schedules_on_a_mix() {
        let p = platform();
        let apps: Vec<PeriodicAppSpec> = (0..6)
            .map(|i| {
                PeriodicAppSpec::new(
                    i,
                    50 + 30 * i as u64,
                    Time::secs(5.0 + i as f64),
                    Bytes::gib(4.0 + 2.0 * i as f64),
                )
            })
            .collect();
        for h in [
            InsertionHeuristic::Throughput,
            InsertionHeuristic::Congestion,
        ] {
            let s = build_schedule(&p, &apps, Time::secs(120.0), h);
            s.validate(&p).unwrap();
            let total: usize = s.plans.iter().map(|pl| pl.n_per()).sum();
            assert!(total > 0, "{}: nothing scheduled", h.name());
        }
    }

    #[test]
    fn names_are_the_paper_names() {
        assert_eq!(
            InsertionHeuristic::Throughput.name(),
            "insert-in-schedule-throu"
        );
        assert_eq!(
            InsertionHeuristic::Congestion.name(),
            "insert-in-schedule-cong"
        );
    }
}

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
use crate::policy::total_order_image;
use iosched_model::Platform;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
///
/// Throu inserts in non-decreasing `w / time_io` order, ties by
/// [`AppId`](iosched_model::AppId), each application until it no longer
/// fits. Cong repeatedly picks the unsaturated application with the
/// smallest `n_per · (w + time_io)` (by `f64::total_cmp`), ties by
/// `AppId` and then by roster index, inserts one instance, and drops the
/// application once an insertion fails. Only the inserted application's
/// key changes between picks, so a min-heap keyed by
/// `(key, AppId, index)` yields exactly the application a full rescan
/// of the unsaturated set would pick, at O(log n) per pick.
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
            for idx in throughput_order(platform, apps) {
                while builder.try_insert(idx) {}
            }
        }
        InsertionHeuristic::Congestion => {
            // Most dilated first: smallest n_per · (w + time_io).
            let spans: Vec<f64> = apps.iter().map(|a| a.span(platform).as_secs()).collect();
            let entry = |idx: usize, n_per: usize| {
                Reverse((
                    total_order_image(n_per as f64 * spans[idx]),
                    apps[idx].id,
                    idx,
                ))
            };
            let mut unsaturated: BinaryHeap<_> = (0..apps.len())
                .map(|i| entry(i, builder.n_per(i)))
                .collect();
            while let Some(Reverse((_, _, idx))) = unsaturated.pop() {
                if builder.try_insert(idx) {
                    unsaturated.push(entry(idx, builder.n_per(idx)));
                }
            }
        }
    }
    builder.build()
}

/// Roster indices in Throu order: non-decreasing `w / time_io`, ties by
/// [`AppId`](iosched_model::AppId).
fn throughput_order(platform: &Platform, apps: &[PeriodicAppSpec]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..apps.len()).collect();
    order.sort_by(|&x, &y| {
        let rx = ratio(&apps[x], platform);
        let ry = ratio(&apps[y], platform);
        rx.total_cmp(&ry).then_with(|| apps[x].id.cmp(&apps[y].id))
    });
    order
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
    use super::super::builder::MAX_INSTANCES_PER_APP;
    use super::*;
    use iosched_model::{AppId, Bw, Bytes, Time};
    use proptest::prelude::*;

    fn platform() -> Platform {
        Platform::new("test", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0))
    }

    /// The §3.2.3 fill with none of [`build_schedule`]'s shortcuts: Cong
    /// rescans every unsaturated application for each pick, and no
    /// insertion of either order consults the builder's failed-fit memo.
    fn reference_fill(
        platform: &Platform,
        apps: &[PeriodicAppSpec],
        period: Time,
        heuristic: InsertionHeuristic,
    ) -> PeriodicSchedule {
        let mut builder = ScheduleBuilder::new(platform, apps, period);
        match heuristic {
            InsertionHeuristic::Throughput => {
                for idx in throughput_order(platform, apps) {
                    while builder.try_insert_unmemoized(idx) {}
                }
            }
            InsertionHeuristic::Congestion => {
                let mut saturated = vec![false; apps.len()];
                loop {
                    let next = (0..apps.len()).filter(|&i| !saturated[i]).min_by(|&x, &y| {
                        let kx = builder.n_per(x) as f64 * apps[x].span(platform).as_secs();
                        let ky = builder.n_per(y) as f64 * apps[y].span(platform).as_secs();
                        kx.total_cmp(&ky).then_with(|| apps[x].id.cmp(&apps[y].id))
                    });
                    let Some(idx) = next else { break };
                    if !builder.try_insert_unmemoized(idx) {
                        saturated[idx] = true;
                    }
                }
            }
        }
        builder.build()
    }

    /// Every bit of a schedule, for bit-for-bit comparisons.
    fn bits(s: &PeriodicSchedule) -> Vec<u64> {
        let mut out = vec![s.period.as_secs().to_bits()];
        for plan in &s.plans {
            out.push(plan.app.0 as u64);
            out.push(plan.instances.len() as u64);
            for inst in &plan.instances {
                out.push(inst.index as u64);
                out.extend(
                    [
                        inst.compute_start,
                        inst.compute_end,
                        inst.io_start,
                        inst.io_end,
                    ]
                    .map(|t| t.as_secs().to_bits()),
                );
                out.push(inst.io_bw.get().to_bits());
            }
        }
        out
    }

    /// A palette shape: `(procs, work, vol)` grid steps, a pure-compute
    /// flag and an overflow flag (compute alone longer than any period
    /// the test fills).
    type RawShape = (u64, u32, u32, bool, bool);

    /// 1–150 applications drawn from a palette of 1–8 shapes, and a
    /// period of 1 to 32 × T₀, where T₀ is the largest span among the
    /// shapes that do not overflow. Shapes repeat, and ids may collide
    /// to exercise the index tie-break. Each field comes from a small
    /// grid (scaled per case), so distinct shapes often share a field.
    fn arb_fill() -> impl Strategy<Value = (Vec<PeriodicAppSpec>, Time)> {
        let shape = (1u64..=6, 1u32..=8, 1u32..=8, 0.0f64..1.0);
        (
            prop::collection::vec(shape, 1..=8),
            prop::collection::vec((0usize..8, 0usize..200), 1..=150),
            (0.5f64..2.0, 0.5f64..2.0),
            1.0f64..=32.0,
        )
            .prop_map(|(palette, roster, (w_scale, vol_scale), factor)| {
                let p = platform();
                let palette: Vec<RawShape> = palette
                    .into_iter()
                    .enumerate()
                    .map(|(k, (procs, w, vol, u))| (25 * procs, w, vol, u < 0.2, k > 0 && u > 0.85))
                    .collect();
                let spec = |id: usize, &(procs, w, vol, compute_only, _): &RawShape| {
                    let vol = if compute_only {
                        0.0
                    } else {
                        10.0 * f64::from(vol) * vol_scale
                    };
                    let w = 10.0 * f64::from(w) * w_scale;
                    PeriodicAppSpec::new(id, procs, Time::secs(w), Bytes::gib(vol))
                };
                let t0 = palette
                    .iter()
                    .filter(|s| !s.4)
                    .map(|s| spec(0, s).span(&p))
                    .fold(Time::ZERO, Time::max);
                let apps = roster
                    .into_iter()
                    .map(|(k, id)| {
                        let shape = palette[k % palette.len()];
                        let mut app = spec(id, &shape);
                        if shape.4 {
                            app.work += t0 * 33.0;
                        }
                        app
                    })
                    .collect();
                (apps, t0 * factor)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The heap-ordered pick, the early-exit first fit and the
        /// per-shape failed-fit memo change no bit of either fill.
        #[test]
        fn fill_matches_the_unshortcut_reference((apps, period) in arb_fill()) {
            let p = platform();
            for heuristic in [InsertionHeuristic::Congestion, InsertionHeuristic::Throughput] {
                let fast = build_schedule(&p, &apps, period, heuristic);
                let reference = reference_fill(&p, &apps, period, heuristic);
                prop_assert!(
                    bits(&fast) == bits(&reference),
                    "{} diverged from the reference on {} apps at T = {period}",
                    heuristic.name(),
                    apps.len()
                );
            }
        }
    }

    /// The instance cap is per application, never per shape. Two
    /// same-shape applications each need the whole PFS for their
    /// transfers; under Throu the first packs the period until it hits
    /// the cap, and the second, whose transfers cannot start before the
    /// first one's last transfer ends, is already past the first one's
    /// final cursor with a single instance. Remembering the cap as a
    /// failed fit would cut it off there.
    #[test]
    fn instance_cap_is_not_remembered_for_the_shape() {
        let p = platform();
        let shape = |id| PeriodicAppSpec::new(id, 100, Time::secs(0.25), Bytes::gib(10.0));
        let apps = [shape(0), shape(1)];
        let period = Time::secs(1.25 * MAX_INSTANCES_PER_APP as f64 + 1_000.0);
        for heuristic in [
            InsertionHeuristic::Throughput,
            InsertionHeuristic::Congestion,
        ] {
            let fast = build_schedule(&p, &apps, period, heuristic);
            let reference = reference_fill(&p, &apps, period, heuristic);
            assert!(bits(&fast) == bits(&reference), "{}", heuristic.name());
            if heuristic == InsertionHeuristic::Throughput {
                assert_eq!(fast.n_per(AppId(0)), MAX_INSTANCES_PER_APP);
                assert!(fast.n_per(AppId(1)) > 1, "n_per {}", fast.n_per(AppId(1)));
            }
        }
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

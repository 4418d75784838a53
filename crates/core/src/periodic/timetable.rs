//! Replaying a [`PeriodicSchedule`] as an [`OnlinePolicy`] (§3.2 meets
//! §3.1).
//!
//! The timetable repeats forever: at simulation time `t`, application `k`
//! receives its planned bandwidth iff `t mod T` falls inside one of its
//! reservation windows (and it actually has an outstanding transfer). The
//! policy wakes the driving engine at every window boundary via
//! [`OnlinePolicy::next_wakeup`], so grants change exactly when the
//! timetable says they should. This is what makes offline periodic
//! schedules first-class citizens of the online-policy roster: the
//! scenario-aware registry ([`crate::registry::PolicyFactory`]) builds the
//! schedule from the materialized workload and hands the simulator a
//! `TimetablePolicy` like any other policy.
//!
//! (The analytic cross-check — unrolling the schedule over `n` regular
//! periods and comparing against the fluid engine — lives in
//! `iosched_sim::periodic_exec`, next to the engine it validates.)

use super::schedule::PeriodicSchedule;
use crate::policy::{AllocScratch, OnlinePolicy, SchedContext};
use iosched_model::{AppId, Bw, Time, EPS};

/// Replay a [`PeriodicSchedule`] inside a fluid simulator.
#[derive(Debug, Clone)]
pub struct TimetablePolicy {
    schedule: PeriodicSchedule,
    /// Sorted window boundaries within `[0, T)`.
    boundaries: Vec<Time>,
    /// `(app, plan position)` pairs sorted by `AppId`: the replay looks
    /// a pending application's plan up at every event, and a linear
    /// `find` over the plans turns each allocation into `O(pending ×
    /// plans)` — the dominant cost of the timetable row in the
    /// congested-moment bench.
    plan_index: Vec<(AppId, u32)>,
    /// Report name (`"timetable"` unless the registry overrode it with
    /// the factory's serde name).
    name: String,
}

impl TimetablePolicy {
    /// Wrap a schedule for execution.
    ///
    /// # Panics
    /// Panics on a schedule with a non-positive period.
    #[must_use]
    pub fn new(schedule: PeriodicSchedule) -> Self {
        assert!(schedule.period.get() > 0.0, "period must be positive");
        let mut boundaries: Vec<Time> = schedule
            .plans
            .iter()
            .flat_map(|p| p.instances.iter().flat_map(|i| [i.io_start, i.io_end]))
            .collect();
        boundaries.sort_by(|a, b| a.get().total_cmp(&b.get()));
        boundaries.dedup_by(|a, b| a.approx_eq(*b));
        let mut plan_index: Vec<(AppId, u32)> = schedule
            .plans
            .iter()
            .enumerate()
            .map(|(k, p)| (p.app, u32::try_from(k).expect("plan count fits u32")))
            .collect();
        plan_index.sort_unstable_by_key(|&(id, _)| id);
        // `planned_bw` keeps the first matching plan (the `find`
        // contract), so duplicate plans for one app keep the lowest
        // position after the sort-by-(id, k).
        plan_index.dedup_by_key(|&mut (id, _)| id);
        Self {
            schedule,
            boundaries,
            plan_index,
            name: "timetable".into(),
        }
    }

    /// Override the report name (the registry labels replays with the
    /// factory's serde name, e.g. `periodic:cong`).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The schedule being replayed.
    #[must_use]
    pub fn schedule(&self) -> &PeriodicSchedule {
        &self.schedule
    }

    /// Offset of `t` within the repeating period.
    fn offset(&self, t: Time) -> Time {
        let period = self.schedule.period.as_secs();
        Time::secs(t.as_secs().rem_euclid(period))
    }

    /// Planned bandwidth of application `id` at period offset `offset`.
    fn planned_bw(&self, id: AppId, offset: Time) -> Bw {
        self.plan_index
            .binary_search_by_key(&id, |&(pid, _)| pid)
            .ok()
            .map_or(Bw::ZERO, |k| {
                let plan = &self.schedule.plans[self.plan_index[k].1 as usize];
                plan.instances
                    .iter()
                    .find(|i| offset.approx_ge(i.io_start) && offset.approx_lt(i.io_end))
                    .map_or(Bw::ZERO, |i| i.io_bw)
            })
    }
}

impl OnlinePolicy for TimetablePolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        let offset = self.offset(ctx.now);
        let grants = &mut scratch.alloc.grants;
        grants.clear();
        grants.extend(ctx.pending.iter().filter_map(|app| {
            let bw = self.planned_bw(app.id, offset).min(app.max_bw);
            (bw.get() > 0.0).then_some((app.id, bw))
        }));
        // The plan was built against the full PFS bandwidth; when the
        // usable capacity is smaller at replay time (an external
        // communication storm shrinking the shared pipe), the open-loop
        // timetable is squeezed proportionally — the schedule's *shape*
        // is preserved while the aggregate respects the §2.1 capacity
        // rule. With the capacity the schedule was built for this is a
        // no-op (the plan never overcommits), so pre-storm replays are
        // bit-identical.
        let total: Bw = grants.iter().map(|(_, bw)| *bw).sum();
        if total.approx_gt(ctx.total_bw) && total.get() > 0.0 {
            let scale = ctx.total_bw.get() / total.get();
            for (_, bw) in grants.iter_mut() {
                *bw = *bw * scale;
            }
        }
    }

    /// Next boundary strictly after `now` — *as the driving engine sees
    /// strictness*. The engine compares wakeups with the mixed
    /// absolute/relative [`EPS`] tolerance, whose scale grows with `now`;
    /// a boundary that is ahead of `now mod T` in period-offset space can
    /// land within one ulp of (or exactly on) `now` once mapped back to
    /// absolute time at a large clock. Returning such a time would either
    /// be discarded (stalling the replay) or advance the clock by less
    /// than the comparison tolerance event after event — a Zeno spin
    /// burning the event budget without progress. So every candidate is
    /// re-checked against `now` in absolute time and skipped if the
    /// mapping collapsed it, falling through to later boundaries and then
    /// whole periods.
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        let period = self.schedule.period;
        let offset = self.offset(now);
        let base = now - offset;
        // Boundaries are sorted and `b ↦ b - tol(b)` is strictly
        // increasing, so `approx_gt(offset)` flips from false to true at
        // most once along the vector — the first candidate is found by
        // binary search instead of scanning the (possibly thousands of)
        // already-passed boundaries of the period.
        let first = self.boundaries.partition_point(|&b| !b.approx_gt(offset));
        for &b in &self.boundaries[first..] {
            let t = base + b;
            if t.approx_gt(now) {
                return Some(t);
            }
            // Rounding collapsed this boundary onto the clock: fall
            // through to a later one.
        }
        // Wrap into following periods, trying *every* boundary of each
        // (a collapsed first boundary must fall through to the next
        // boundary of the same period, not to the next whole period —
        // otherwise a grant change fires up to a period late).
        let mut shifted = base;
        for _ in 0..64 {
            shifted += period;
            if self.boundaries.is_empty() {
                if shifted.approx_gt(now) {
                    return Some(shifted);
                }
                continue;
            }
            for &b in &self.boundaries {
                let t = shifted + b;
                if t.approx_gt(now) {
                    return Some(t);
                }
            }
        }
        // Degenerate: the clock is so large that whole periods vanish
        // below the comparison tolerance. Step by the tolerance itself so
        // the engine always observes strict progress.
        Some(Time::new(now.get() + 2.0 * EPS * now.get().abs().max(1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::periodic::{build_schedule, InsertionHeuristic, PeriodicAppSpec};
    use iosched_model::{Bytes, Platform};

    fn platform() -> Platform {
        Platform::new("t", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0))
    }

    fn schedule() -> PeriodicSchedule {
        let apps = [
            PeriodicAppSpec::new(0, 100, Time::secs(8.0), Bytes::gib(20.0)),
            PeriodicAppSpec::new(1, 100, Time::secs(8.0), Bytes::gib(20.0)),
        ];
        build_schedule(
            &platform(),
            &apps,
            Time::secs(24.0),
            InsertionHeuristic::Congestion,
        )
    }

    #[test]
    fn grants_follow_the_plan() {
        let s = schedule();
        let mut policy = TimetablePolicy::new(s.clone());
        // Probe the middle of the first app's first I/O window.
        let plan = &s.plans[0];
        let inst = &plan.instances[0];
        let mid = (inst.io_start + inst.io_end) / 2.0;
        let pending = [crate::policy::test_support::app(plan.app.0, 100.0)];
        let ctx = SchedContext {
            now: mid,
            total_bw: Bw::gib_per_sec(10.0),
            pending: &pending,
            signal: None,
        };
        let alloc = policy.allocate(&ctx);
        assert!(alloc.granted(plan.app).approx_eq(inst.io_bw));
        // And mid-compute (before the window) it grants nothing.
        let ctx2 = SchedContext {
            now: inst.io_start - Time::secs(0.5),
            ..ctx
        };
        assert!(policy.allocate(&ctx2).granted(plan.app).is_zero());
    }

    #[test]
    fn shrunk_capacity_squeezes_the_plan_proportionally() {
        let s = schedule();
        let mut policy = TimetablePolicy::new(s.clone());
        let plan = &s.plans[0];
        let inst = &plan.instances[0];
        let mid = (inst.io_start + inst.io_end) / 2.0;
        let mut pending = [crate::policy::test_support::app(plan.app.0, 100.0)];
        pending[0].max_bw = Bw::gib_per_sec(100.0);
        // Full capacity: the planned bandwidth, untouched.
        let ctx = SchedContext {
            now: mid,
            total_bw: Bw::gib_per_sec(10.0),
            pending: &pending,
            signal: None,
        };
        assert!(policy
            .allocate(&ctx)
            .granted(plan.app)
            .approx_eq(inst.io_bw));
        // A storm halves the pipe below the planned rate: the grant is
        // squeezed onto the capacity and stays valid.
        let squeezed_cap = inst.io_bw / 2.0;
        let ctx = SchedContext {
            total_bw: squeezed_cap,
            ..ctx
        };
        let alloc = policy.allocate(&ctx);
        assert!(alloc.granted(plan.app).approx_eq(squeezed_cap));
        alloc.validate(&ctx).unwrap();
    }

    #[test]
    fn wakeups_hit_every_boundary() {
        let s = schedule();
        let policy = TimetablePolicy::new(s.clone());
        let first = policy.next_wakeup(Time::ZERO).unwrap();
        assert!(first.approx_gt(Time::ZERO));
        // Wakeups advance strictly and wrap to the next period.
        let mut t = Time::ZERO;
        let mut steps = 0;
        while t.approx_lt(s.period * 2.0) {
            let next = policy.next_wakeup(t).unwrap();
            assert!(next.approx_gt(t), "wakeup {next} not after {t}");
            t = next;
            steps += 1;
            assert!(steps < 1_000, "wakeups must make progress");
        }
        assert!(steps >= 4, "two periods should contain several boundaries");
    }

    /// Regression (Zeno spin): when a window boundary lands within one
    /// ulp of the current clock — unavoidable once `now` is many periods
    /// in — `next_wakeup` must not return a time the engine's
    /// `approx_gt(now)` check would discard, nor crawl forward in
    /// sub-tolerance steps. Every returned wakeup is strictly ahead under
    /// the same mixed tolerance the engine applies, and a bounded number
    /// of wakeups crosses any period.
    #[test]
    fn wakeups_advance_even_when_a_boundary_is_one_ulp_away() {
        let s = schedule();
        let policy = TimetablePolicy::new(s.clone());
        let period = s.period.as_secs();
        // A clock ~4×10⁹ periods in: ulp(now) is far larger than any
        // boundary gap mapped through `rem_euclid`, so naive `base + b`
        // arithmetic collapses boundaries onto (or before) the clock.
        let huge = 4.0e9_f64 * period;
        for &b in policy.boundaries.iter().chain([Time::ZERO].iter()) {
            // Park the clock exactly on the boundary's image, one ulp
            // below, and one ulp above.
            let on = huge + b.as_secs();
            for now in [
                on,
                f64::from_bits(on.to_bits() - 1),
                f64::from_bits(on.to_bits() + 1),
            ] {
                let now = Time::secs(now);
                let next = policy.next_wakeup(now).unwrap();
                assert!(
                    next.approx_gt(now),
                    "wakeup {next} not strictly after {now} (boundary {b})"
                );
            }
        }
        // Progress bound: from any huge clock, a handful of wakeups must
        // cross two full periods (no sub-tolerance crawling).
        let mut t = Time::secs(huge);
        let goal = Time::secs(huge + 2.0 * period);
        let mut steps = 0;
        while t.approx_lt(goal) {
            t = policy.next_wakeup(t).unwrap();
            steps += 1;
            assert!(steps < 1_000, "Zeno spin: {steps} wakeups without progress");
        }
    }

    /// Companion to the ulp regression: when the comparison tolerance at
    /// a large clock swallows the gap to the next period's *first*
    /// boundary but not to its second, the wrap must fall through to the
    /// second boundary — not jump a whole extra period and fire the
    /// grant change late.
    #[test]
    fn collapsed_next_period_boundary_falls_through_within_one_period() {
        let s = schedule();
        let policy = TimetablePolicy::new(s.clone());
        let period = s.period.as_secs(); // 24 s, boundaries at 8, 10, …
                                         // now ≈ 9×10⁹ s: tolerance ≈ EPS·now ≈ 9 s. Parked at offset
                                         // 23.9 s, the next period's boundary at 8 is only 8.1 s ahead
                                         // (collapsed under the tolerance) while the one at 10 is 10.1 s
                                         // ahead (visible).
        let now = Time::secs(375_000_000.0 * period + 23.9);
        let next = policy.next_wakeup(now).unwrap();
        assert!(next.approx_gt(now));
        assert!(
            next.get() - now.get() <= period,
            "wakeup jumped {} s — more than one period ({period} s): the \
             wrap skipped the next period's later boundaries",
            next.get() - now.get()
        );
    }

    #[test]
    fn with_name_relabels_the_replay() {
        let policy = TimetablePolicy::new(schedule());
        assert_eq!(policy.name(), "timetable");
        let named = TimetablePolicy::new(schedule()).with_name("periodic:cong");
        assert_eq!(named.name(), "periodic:cong");
    }
}

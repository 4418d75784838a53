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
    /// The candidate table: for a period offset, the plans that can
    /// grant there, so a decision pays per candidate instead of looking
    /// up every pending application's plan.
    ///
    /// Each window `[io_start, io_end)` of a plan gets the superset
    /// `[io_start − slack, io_end)` with
    /// `slack = 2·EPS·max(1, T, |io_start|, |io_end|)`. `edges` holds the
    /// sorted, distinct ends of all supersets as plain `f64`s, and cell
    /// `c` is `[edges[c − 1], edges[c])` (cell 0 starts at `−∞`, the
    /// last one ends at `+∞`). `cells[c]` lists, as `(app, plan
    /// position)` in `AppId` order, the plans with a superset covering
    /// cell `c`; only the first plan of an `AppId` counts, since the
    /// lookup keeps the first matching plan.
    ///
    /// The table is exact. For `0 ≤ offset ≤ T`, the tolerance of
    /// `offset.approx_ge(io_start)` is at most
    /// `EPS·max(1, T, |io_start|)` and that of `offset.approx_lt(io_end)`
    /// is positive, so a window that matches has
    /// `io_start − slack < offset < io_end`. Both superset ends are
    /// edges, so the cell holding `offset` lies inside the superset and
    /// lists the plan. A plan that is not listed has no matching window
    /// and granted 0 under a per-application lookup too.
    edges: Vec<f64>,
    cells: Vec<Vec<(AppId, usize)>>,
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

        // The first plan of each application, in `AppId` order.
        let mut firsts: Vec<(AppId, usize)> = schedule
            .plans
            .iter()
            .enumerate()
            .map(|(k, p)| (p.app, k))
            .collect();
        firsts.sort_unstable();
        firsts.dedup_by_key(|&mut (id, _)| id);
        // The supersets of plan `k`'s windows; an empty (or NaN) one
        // never matches.
        let period = schedule.period.get();
        let windows = |k: usize| {
            schedule.plans[k].instances.iter().filter_map(move |i| {
                let (lo, hi) = (i.io_start.get(), i.io_end.get());
                let lo = lo - 2.0 * EPS * lo.abs().max(hi.abs()).max(period).max(1.0);
                (lo < hi).then_some((lo, hi))
            })
        };
        let mut edges: Vec<f64> = firsts
            .iter()
            .flat_map(|&(_, k)| windows(k).flat_map(|(lo, hi)| [lo, hi]))
            .collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        let mut cells: Vec<Vec<(AppId, usize)>> = vec![Vec::new(); edges.len() + 1];
        for &(id, k) in &firsts {
            for (lo, hi) in windows(k) {
                // Cells `c` with `lo ≤ edges[c − 1] < hi`.
                let first = edges.partition_point(|&e| e < lo) + 1;
                let end = edges.partition_point(|&e| e < hi) + 1;
                for cell in &mut cells[first..end] {
                    if cell.last().map(|&(last, _)| last) != Some(id) {
                        cell.push((id, k));
                    }
                }
            }
        }
        Self {
            schedule,
            boundaries,
            edges,
            cells,
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

    /// The plans that can grant at period offset `offset`: its cell of
    /// the candidate table.
    fn candidates(&self, offset: Time) -> &[(AppId, usize)] {
        &self.cells[self.edges.partition_point(|&e| e <= offset.get())]
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
        // Candidates and pending are both in `AppId` order, so each
        // binary search runs over what is left of the pending slice.
        let mut rest = ctx.pending;
        for &(id, k) in self.candidates(offset) {
            let app = match rest.binary_search_by_key(&id, |a| a.id) {
                Ok(i) => {
                    let app = &rest[i];
                    rest = &rest[i + 1..];
                    app
                }
                Err(i) => {
                    rest = &rest[i..];
                    continue;
                }
            };
            let planned = self.schedule.plans[k]
                .instances
                .iter()
                .find(|i| offset.approx_ge(i.io_start) && offset.approx_lt(i.io_end))
                .map_or(Bw::ZERO, |i| i.io_bw);
            let bw = planned.min(app.max_bw);
            if bw.get() > 0.0 {
                grants.push((id, bw));
            }
        }
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

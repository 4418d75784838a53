//! The uncoordinated baseline schedulers the paper compares against.
//!
//! These live in `iosched_core`, next to the heuristics, so the
//! scenario-aware policy registry ([`crate::registry::PolicyFactory`]) can
//! instantiate the *entire* roster — §3.1 heuristics, baselines and §3.2
//! periodic timetables — from one place.
//!
//! * [`FairShare`] — max–min fair bandwidth sharing: the fluid
//!   idealization of a parallel file system with no global scheduler
//!   (every application streams at once — the regime where the Fig. 1
//!   disk-locality interference penalty bites hardest).
//! * [`Fcfs`] — strict first-come-first-served: the oldest outstanding
//!   I/O request owns the PFS (§1 cites this as the simplest policy used
//!   by server-side HPC I/O schedulers).
//! * [`native_platform`] — the platform of the "Intrepid scheduler",
//!   "Mira scheduler" and "Vesta scheduler" baselines, which run
//!   [`FairShare`] on it.

use crate::policy::{
    allocate_into_by_rank, order_into_by_rank, rank_key, AllocScratch, AppState, OnlinePolicy,
    Ranked, SchedContext,
};
use iosched_model::{Bw, Interference, Platform};

/// Uncoordinated concurrent access with max–min fairness.
///
/// Every application that wants I/O transfers concurrently; the PFS
/// bandwidth is split by progressive water-filling: applications whose
/// card limit `β·b` is below the equal share keep their limit, the
/// leftover is redistributed among the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairShare;

/// FairShare's water-filling order: smallest card limit first, ties by
/// `AppId`. A key of its own rather than `impl Ranked for FairShare`,
/// which would let `Priority<FairShare>` build a greedy policy.
struct ByCardLimit;

impl Ranked for ByCardLimit {
    fn rank(&self, a: &AppState) -> u128 {
        rank_key(0, a.max_bw.get())
    }
}

impl OnlinePolicy for FairShare {
    fn name(&self) -> String {
        "fairshare".into()
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        // Progressive filling: satisfy the most-constrained demands first.
        order_into_by_rank(&ByCardLimit, ctx, scratch);
        let grants = &mut scratch.alloc.grants;
        grants.clear();
        let mut remaining = ctx.total_bw;
        let mut left = ctx.pending.len();
        for &i in &scratch.order {
            let fair = remaining / left as f64;
            let bw = ctx.pending[i].max_bw.min(fair);
            if bw.get() > 0.0 {
                grants.push((ctx.pending[i].id, bw));
            }
            remaining = (remaining - bw).max(Bw::ZERO);
            left -= 1;
        }
        grants.sort_unstable_by_key(|&(id, _)| id);
    }

    fn reads_progress_keys(&self) -> bool {
        false
    }
}

/// Oldest-request-first baseline (leftover card capacity cascades to the
/// next-oldest, as in the shared greedy grant loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl OnlinePolicy for Fcfs {
    fn name(&self) -> String {
        "fcfs".into()
    }

    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        order_into_by_rank(self, ctx, scratch);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        allocate_into_by_rank(self, ctx, scratch);
    }

    fn reads_progress_keys(&self) -> bool {
        false
    }
}

impl Ranked for Fcfs {
    fn rank(&self, a: &AppState) -> u128 {
        rank_key(0, a.io_requested_at.as_secs())
    }
}

/// Stand-in for the production I/O stacks the paper measures against.
///
/// §4.4 compares the heuristics *without* burst buffers to "the Intrepid
/// and Mira schedulers" *with* burst buffers; §5 does the same on Vesta.
/// The production stack has no cross-application coordination, so it is
/// modelled as [`FairShare`] running on `base` equipped with
///
/// * the disk-locality interference penalty (the Fig. 1 effect:
///   uncoordinated interleaved streams degrade the delivered aggregate
///   bandwidth), and
/// * the default burst buffer (absorb at 4×B, one minute of full-PFS
///   capacity), which hides the penalty while it has headroom, for runs
///   that route I/O through it (`SimConfig::use_burst_buffer`).
#[must_use]
pub fn native_platform(base: Platform) -> Platform {
    base.with_interference(Interference::default_penalty())
        .with_default_burst_buffer()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::{app, ctx};
    use iosched_model::{AppId, Time};

    #[test]
    fn equal_demands_split_equally() {
        let pending = [app(0, 10.0), app(1, 10.0), app(2, 10.0), app(3, 10.0)];
        let c = ctx(10.0, &pending);
        let alloc = FairShare.allocate(&c);
        alloc.validate(&c).unwrap();
        for i in 0..4 {
            assert!(
                alloc.granted(AppId(i)).approx_eq(Bw::gib_per_sec(2.5)),
                "app {i} got {}",
                alloc.granted(AppId(i))
            );
        }
    }

    #[test]
    fn small_demand_frees_bandwidth_for_big_ones() {
        // One app capped at 1 GiB/s, two at 10: water-filling gives
        // 1 + 4.5 + 4.5.
        let pending = [app(0, 1.0), app(1, 10.0), app(2, 10.0)];
        let c = ctx(10.0, &pending);
        let alloc = FairShare.allocate(&c);
        alloc.validate(&c).unwrap();
        assert!(alloc.granted(AppId(0)).approx_eq(Bw::gib_per_sec(1.0)));
        assert!(alloc.granted(AppId(1)).approx_eq(Bw::gib_per_sec(4.5)));
        assert!(alloc.granted(AppId(2)).approx_eq(Bw::gib_per_sec(4.5)));
    }

    #[test]
    fn undersubscribed_system_gives_everyone_their_cap() {
        let pending = [app(0, 2.0), app(1, 3.0)];
        let c = ctx(10.0, &pending);
        let alloc = FairShare.allocate(&c);
        assert!(alloc.granted(AppId(0)).approx_eq(Bw::gib_per_sec(2.0)));
        assert!(alloc.granted(AppId(1)).approx_eq(Bw::gib_per_sec(3.0)));
    }

    #[test]
    fn empty_pending_grants_nothing() {
        let pending: [crate::policy::AppState; 0] = [];
        let c = ctx(10.0, &pending);
        assert!(FairShare.allocate(&c).grants.is_empty());
    }

    #[test]
    fn everyone_gets_something_under_congestion() {
        let pending: Vec<_> = (0..7).map(|i| app(i, 10.0)).collect();
        let c = ctx(10.0, &pending);
        let alloc = FairShare.allocate(&c);
        alloc.validate(&c).unwrap();
        for i in 0..7 {
            assert!(alloc.granted(AppId(i)).get() > 0.0, "app {i} starved");
        }
        assert!(alloc.total().approx_eq(c.total_bw));
    }

    #[test]
    fn oldest_request_owns_the_disk() {
        let mut a0 = app(0, 10.0);
        a0.io_requested_at = Time::secs(20.0);
        let mut a1 = app(1, 10.0);
        a1.io_requested_at = Time::secs(5.0);
        let pending = [a0, a1];
        let c = ctx(10.0, &pending);
        let alloc = Fcfs.allocate(&c);
        assert!(alloc.granted(AppId(1)).approx_eq(c.total_bw));
        assert!(alloc.granted(AppId(0)).is_zero());
    }

    #[test]
    fn leftover_cascades_to_next_oldest() {
        let mut a0 = app(0, 4.0);
        a0.io_requested_at = Time::secs(1.0);
        let mut a1 = app(1, 4.0);
        a1.io_requested_at = Time::secs(2.0);
        let mut a2 = app(2, 4.0);
        a2.io_requested_at = Time::secs(3.0);
        let pending = [a0, a1, a2];
        let c = ctx(10.0, &pending);
        let alloc = Fcfs.allocate(&c);
        assert!(alloc.granted(AppId(0)).approx_eq(Bw::gib_per_sec(4.0)));
        assert!(alloc.granted(AppId(1)).approx_eq(Bw::gib_per_sec(4.0)));
        assert!(alloc.granted(AppId(2)).approx_eq(Bw::gib_per_sec(2.0)));
    }

    #[test]
    fn fcfs_ties_break_by_id() {
        let pending = [app(1, 10.0), app(0, 10.0)];
        let c = ctx(10.0, &pending);
        let alloc = Fcfs.allocate(&c);
        assert!(alloc.granted(AppId(0)).approx_eq(c.total_bw));
    }
}

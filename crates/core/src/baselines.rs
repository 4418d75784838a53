//! The uncoordinated baseline schedulers the paper compares against.
//!
//! These live in `iosched_core` (rather than the `iosched-baselines`
//! facade crate, which re-exports them) so the scenario-aware policy
//! registry ([`crate::registry::PolicyFactory`]) can instantiate the
//! *entire* roster — §3.1 heuristics, baselines and §3.2 periodic
//! timetables — from one place.
//!
//! * [`FairShare`] — max–min fair bandwidth sharing: the fluid
//!   idealization of a parallel file system with no global scheduler
//!   (every application streams at once — the regime where the Fig. 1
//!   disk-locality interference penalty bites hardest).
//! * [`Fcfs`] — strict first-come-first-served: the oldest outstanding
//!   I/O request owns the PFS (§1 cites this as the simplest policy used
//!   by server-side HPC I/O schedulers).

use crate::policy::{
    allocate_into_by_rank, order_by_rank, order_into_by_key_asc, order_into_by_rank, rank_key,
    AllocScratch, Allocation, AppState, OnlinePolicy, Ranked, SchedContext,
};
use iosched_model::Bw;

/// Uncoordinated concurrent access with max–min fairness.
///
/// Every application that wants I/O transfers concurrently; the PFS
/// bandwidth is split by progressive water-filling: applications whose
/// card limit `β·b` is below the equal share keep their limit, the
/// leftover is redistributed among the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairShare;

impl OnlinePolicy for FairShare {
    fn name(&self) -> String {
        "fairshare".into()
    }

    fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
        // Order is irrelevant for a policy that serves everyone; return
        // id order for determinism (used only if someone wraps us).
        (0..ctx.pending.len()).collect()
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> Allocation {
        let n = ctx.pending.len();
        if n == 0 {
            return Allocation::empty();
        }
        // Progressive filling: satisfy the most-constrained demands first.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            ctx.pending[a]
                .max_bw
                .get()
                .total_cmp(&ctx.pending[b].max_bw.get())
                .then_with(|| ctx.pending[a].id.cmp(&ctx.pending[b].id))
        });
        let mut remaining = ctx.total_bw;
        let mut left = n;
        let mut grants = Vec::with_capacity(n);
        for &i in &order {
            let fair = remaining / left as f64;
            let bw = ctx.pending[i].max_bw.min(fair);
            if bw.get() > 0.0 {
                grants.push((ctx.pending[i].id, bw));
            }
            remaining = (remaining - bw).max(Bw::ZERO);
            left -= 1;
        }
        grants.sort_by_key(|(id, _)| *id);
        Allocation { grants }
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        // The water-filling pass of `allocate`, reusing the scratch
        // buffers: the same arithmetic on the same values in the same
        // order, so both entry points are bit-identical.
        let n = ctx.pending.len();
        scratch.alloc.grants.clear();
        if n == 0 {
            return;
        }
        order_into_by_key_asc(ctx, scratch, |a| a.max_bw.get());
        let grants = &mut scratch.alloc.grants;
        let mut remaining = ctx.total_bw;
        let mut left = n;
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
}

/// Oldest-request-first baseline (leftover card capacity cascades to the
/// next-oldest, as in the shared greedy grant loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl OnlinePolicy for Fcfs {
    fn name(&self) -> String {
        "fcfs".into()
    }

    fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
        order_by_rank(self, ctx)
    }

    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        order_into_by_rank(self, ctx, scratch);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        allocate_into_by_rank(self, ctx, scratch);
    }
}

impl Ranked for Fcfs {
    fn rank(&self, a: &AppState) -> u128 {
        rank_key(0, a.io_requested_at.as_secs())
    }
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

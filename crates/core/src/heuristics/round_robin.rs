//! The RoundRobin scheduler — the comparison baseline of §3.1.
//!
//! "The general idea of scheduling applications is first-come first-served
//! (FCFS) with an additional constraint to ensure fairness. […] the
//! application that finished the I/O transfer of its last instance the
//! longest time ago is favored."

use crate::policy::{
    allocate_into_by_rank, order_into_by_rank, rank_key, AllocScratch, AppState, OnlinePolicy,
    Ranked, SchedContext,
};

/// FCFS with fairness: least-recently-served application first.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl OnlinePolicy for RoundRobin {
    fn name(&self) -> String {
        "roundrobin".into()
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

impl Ranked for RoundRobin {
    /// Oldest last-I/O-completion first; apps that never performed I/O
    /// carry their release time, so long-waiting newcomers win too.
    fn rank(&self, a: &AppState) -> u128 {
        rank_key(0, a.last_io_end.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::{app, ctx};
    use iosched_model::{AppId, Time};

    #[test]
    fn least_recently_served_wins() {
        let mut a0 = app(0, 10.0);
        a0.last_io_end = Time::secs(50.0);
        let mut a1 = app(1, 10.0);
        a1.last_io_end = Time::secs(10.0); // served longest ago
        let pending = [a0, a1];
        let c = ctx(10.0, &pending);
        let alloc = RoundRobin.allocate(&c);
        assert!(alloc.granted(AppId(1)).approx_eq(c.total_bw));
        assert!(alloc.granted(AppId(0)).is_zero());
    }

    #[test]
    fn no_congestion_serves_everyone() {
        let mut a0 = app(0, 3.0);
        a0.last_io_end = Time::secs(1.0);
        let mut a1 = app(1, 3.0);
        a1.last_io_end = Time::secs(2.0);
        let pending = [a0, a1];
        let c = ctx(10.0, &pending);
        let alloc = RoundRobin.allocate(&c);
        // Both fit within B: both run at full card speed.
        assert!(alloc.granted(AppId(0)).as_gib_per_sec() > 2.9);
        assert!(alloc.granted(AppId(1)).as_gib_per_sec() > 2.9);
    }

    #[test]
    fn tie_broken_by_id() {
        let pending = [app(1, 10.0), app(0, 10.0)];
        let c = ctx(10.0, &pending);
        let alloc = RoundRobin.allocate(&c);
        assert!(alloc.granted(AppId(0)).approx_eq(c.total_bw));
    }
}

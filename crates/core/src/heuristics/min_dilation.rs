//! The MinDilation scheduler of §3.1: "favors applications with low values
//! of ρ̃(k)(t)/ρ(k)(t)" — i.e. the applications furthest behind their
//! congestion-free schedule, which directly attacks the Dilation objective
//! (fairness / user-oriented).

use crate::policy::{
    allocate_into_by_rank, order_into_by_rank, rank_key, AllocScratch, AppState, OnlinePolicy,
    Ranked, SchedContext,
};

/// Serve the most-slowed-down applications first.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinDilation;

impl OnlinePolicy for MinDilation {
    fn name(&self) -> String {
        "mindilation".into()
    }

    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        order_into_by_rank(self, ctx, scratch);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        allocate_into_by_rank(self, ctx, scratch);
    }
}

impl Ranked for MinDilation {
    fn rank(&self, a: &AppState) -> u128 {
        rank_key(0, a.dilation_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::{app, ctx};
    use iosched_model::AppId;

    #[test]
    fn most_dilated_app_wins() {
        let mut a0 = app(0, 10.0);
        a0.dilation_ratio = 0.9; // nearly on schedule
        let mut a1 = app(1, 10.0);
        a1.dilation_ratio = 0.3; // badly slowed down
        let pending = [a0, a1];
        let c = ctx(10.0, &pending);
        let alloc = MinDilation.allocate(&c);
        assert!(alloc.granted(AppId(1)).approx_eq(c.total_bw));
        assert!(alloc.granted(AppId(0)).is_zero());
    }

    #[test]
    fn leftover_bandwidth_flows_to_next_app() {
        let mut a0 = app(0, 4.0);
        a0.dilation_ratio = 0.1;
        let mut a1 = app(1, 4.0);
        a1.dilation_ratio = 0.5;
        let pending = [a0, a1];
        let c = ctx(10.0, &pending);
        let alloc = MinDilation.allocate(&c);
        assert!(alloc.granted(AppId(0)).as_gib_per_sec() > 3.9);
        assert!(alloc.granted(AppId(1)).as_gib_per_sec() > 3.9);
    }
}

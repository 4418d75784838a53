//! The MaxSysEff scheduler of §3.1 — the CPU-oriented strategy that chases
//! the SysEfficiency objective `(1/N)Σ β(k)ρ̃(k)`.
//!
//! We order pending applications by **descending** `β(k)·ρ̃(k)(t)`: every
//! second application `k` spends stalled wastes `β(k)` processor-seconds
//! weighted by the efficiency it was sustaining, so the largest
//! weighted-progress applications are unblocked first. This matches the
//! paper's description of the objective ("priority to compute-intensive
//! applications with large w and small vol_io" — those have the highest
//! ρ̃) and its measured behaviour: Fig. 16 shows MaxSysEff *lowering* the
//! big applications' dilation by ~48 % while the small ones wait, and
//! Tables 1–2 show the highest SysEfficiency together with the worst
//! Dilation.
//!
//! Deviation note: the research report's §3.1 phrasing says "low values
//! of β(k)ρ̃(k)(t)", but that ordering starves exactly the
//! applications that dominate the weighted objective and contradicts the
//! Fig. 16 per-application measurements; we implement the reading
//! consistent with the reported results.

use crate::policy::{
    allocate_into_by_rank, order_into_by_rank, rank_key, AllocScratch, AppState, OnlinePolicy,
    Ranked, SchedContext,
};

/// Serve applications with the highest `β·ρ̃` first.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxSysEff;

impl OnlinePolicy for MaxSysEff {
    fn name(&self) -> String {
        "maxsyseff".into()
    }

    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        order_into_by_rank(self, ctx, scratch);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        allocate_into_by_rank(self, ctx, scratch);
    }
}

impl Ranked for MaxSysEff {
    fn rank(&self, a: &AppState) -> u128 {
        rank_key(0, -a.syseff_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::{app, ctx};
    use iosched_model::AppId;

    #[test]
    fn highest_weighted_progress_wins() {
        let mut a0 = app(0, 10.0);
        a0.syseff_key = 500.0; // big application, high weighted progress
        let mut a1 = app(1, 10.0);
        a1.syseff_key = 20.0;
        let pending = [a0, a1];
        let c = ctx(10.0, &pending);
        let alloc = MaxSysEff.allocate(&c);
        assert!(alloc.granted(AppId(0)).approx_eq(c.total_bw));
        assert!(alloc.granted(AppId(1)).is_zero());
    }

    #[test]
    fn leftover_bandwidth_cascades_down_the_key_order() {
        let mut a0 = app(0, 4.0);
        a0.syseff_key = 10.0;
        let mut a1 = app(1, 4.0);
        a1.syseff_key = 300.0;
        let mut a2 = app(2, 4.0);
        a2.syseff_key = 100.0;
        let pending = [a0, a1, a2];
        let c = ctx(10.0, &pending);
        let alloc = MaxSysEff.allocate(&c);
        // Order: a1 (300), a2 (100), a0 (10) → 4 + 4 + 2.
        assert!(alloc
            .granted(AppId(1))
            .approx_eq(iosched_model::Bw::gib_per_sec(4.0)));
        assert!(alloc
            .granted(AppId(2))
            .approx_eq(iosched_model::Bw::gib_per_sec(4.0)));
        assert!(alloc
            .granted(AppId(0))
            .approx_eq(iosched_model::Bw::gib_per_sec(2.0)));
    }

    #[test]
    fn deterministic_on_equal_keys() {
        let pending = [app(3, 10.0), app(1, 10.0), app(2, 10.0)];
        let c = ctx(10.0, &pending);
        let a = MaxSysEff.allocate(&c);
        let b = MaxSysEff.allocate(&c);
        assert_eq!(a, b);
        assert!(a.granted(AppId(1)).approx_eq(c.total_bw));
    }
}

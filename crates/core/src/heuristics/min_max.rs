//! The MinMax-γ scheduler of §3.1: a tunable trade-off between MaxSysEff
//! and MinDilation.
//!
//! "favors applications with low values of β(k)ρ̃(k)(t), *unless* there
//! exists an application with a value ρ̃(k)(t)/ρ(k)(t) below a certain
//! threshold γ, in which case it favors the application with the lower
//! ρ̃(k)(t)/ρ(k)(t)."
//!
//! Since `0 ≤ ρ̃/ρ ≤ 1`, MinMax-γ degenerates to MinDilation at `γ = 1`
//! and to MaxSysEff at `γ = 0` (no ratio can sit strictly below 0).

use crate::policy::{
    greedy_allocate_into, order_into_by, AllocScratch, AppState, OnlinePolicy, SchedContext,
};
use std::cmp::Ordering;

/// Threshold strategy: rescue applications whose dilation ratio fell below
/// `gamma`, otherwise optimize system efficiency.
#[derive(Debug, Clone, Copy)]
pub struct MinMax {
    gamma: f64,
}

impl MinMax {
    /// Create a MinMax-γ policy.
    ///
    /// # Panics
    /// Panics unless `0 ≤ γ ≤ 1` ("this threshold should be defined by the
    /// system administrator"; outside `[0,1]` it is meaningless).
    #[must_use]
    pub fn new(gamma: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gamma),
            "MinMax threshold must be in [0, 1], got {gamma}"
        );
        Self { gamma }
    }

    /// The configured threshold.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The preference between two pending applications: those below the
    /// dilation threshold are rescued first (most dilated first); the
    /// rest follow in MaxSysEff order (descending β·ρ̃ — see the deviation
    /// note on [`crate::heuristics::MaxSysEff`]). The `AppId` tie-break
    /// makes it strict on distinct applications, so every sort yields
    /// the same permutation.
    fn prefer(&self, x: &AppState, y: &AppState) -> Ordering {
        let (bx, by) = (x.dilation_ratio < self.gamma, y.dilation_ratio < self.gamma);
        by.cmp(&bx) // below-threshold group first
            .then_with(|| match (bx, by) {
                (true, true) => x.dilation_ratio.total_cmp(&y.dilation_ratio),
                _ => y.syseff_key.total_cmp(&x.syseff_key),
            })
            .then_with(|| x.id.cmp(&y.id))
    }
}

impl OnlinePolicy for MinMax {
    fn name(&self) -> String {
        format!("minmax-{:.2}", self.gamma)
    }

    fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..ctx.pending.len()).collect();
        order.sort_by(|&x, &y| self.prefer(&ctx.pending[x], &ctx.pending[y]));
        order
    }

    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        order_into_by(ctx, scratch, |x, y| self.prefer(x, y));
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        self.order_into(ctx, scratch);
        greedy_allocate_into(ctx, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{MaxSysEff, MinDilation};
    use crate::policy::test_support::{app, ctx};
    use iosched_model::AppId;

    fn pending_mixed() -> [AppState; 3] {
        let mut a0 = app(0, 10.0);
        a0.dilation_ratio = 0.9;
        a0.syseff_key = 10.0; // best syseff key
        let mut a1 = app(1, 10.0);
        a1.dilation_ratio = 0.2; // far below any mid threshold
        a1.syseff_key = 500.0;
        let mut a2 = app(2, 10.0);
        a2.dilation_ratio = 0.6;
        a2.syseff_key = 50.0;
        [a0, a1, a2]
    }

    #[test]
    fn rescues_below_threshold_app() {
        let pending = pending_mixed();
        let c = ctx(10.0, &pending);
        let alloc = MinMax::new(0.5).allocate(&c);
        // App 1 (ratio 0.2 < 0.5) must be served despite the worst key.
        assert!(alloc.granted(AppId(1)).approx_eq(c.total_bw));
    }

    #[test]
    fn without_threshold_hit_behaves_like_maxsyseff() {
        let pending = pending_mixed();
        let c = ctx(10.0, &pending);
        let minmax = MinMax::new(0.1).allocate(&c); // nobody below 0.1
        let maxsyseff = MaxSysEff.allocate(&c);
        assert_eq!(minmax, maxsyseff);
    }

    #[test]
    fn gamma_one_equals_mindilation() {
        let pending = pending_mixed();
        let c = ctx(10.0, &pending);
        let minmax = MinMax::new(1.0).allocate(&c);
        let mindil = MinDilation.allocate(&c);
        assert_eq!(minmax, mindil);
    }

    #[test]
    fn gamma_zero_equals_maxsyseff() {
        let pending = pending_mixed();
        let c = ctx(10.0, &pending);
        let minmax = MinMax::new(0.0).allocate(&c);
        let maxsyseff = MaxSysEff.allocate(&c);
        assert_eq!(minmax, maxsyseff);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_gamma_panics() {
        let _ = MinMax::new(1.5);
    }

    #[test]
    fn name_embeds_gamma() {
        assert_eq!(MinMax::new(0.25).name(), "minmax-0.25");
    }
}

//! The Priority variant of §3.1.
//!
//! "the scheduler always chooses applications that already started
//! performing their I/O before favoring any other application. The rationale
//! behind this is that there may be an additional cost incurred by
//! restarting the I/O of an application after an interruption, due to
//! breaking disk locality."
//!
//! `Priority<P>` composes with any [`Ranked`] policy `P`: applications
//! with `started_io == true` are ordered first (using `P`'s order among
//! themselves), the rest follow, also in `P`'s order. The wrapper sets the
//! top bit of `P`'s rank for the applications that have not started, so
//! the composition is itself a rank.

use crate::policy::{
    allocate_into_by_rank, order_into_by_rank, AllocScratch, AppState, OnlinePolicy, Ranked,
    SchedContext,
};

/// Never interrupt an application that already started its current I/O.
#[derive(Debug, Clone, Copy, Default)]
pub struct Priority<P> {
    inner: P,
}

impl<P: Ranked + OnlinePolicy> Priority<P> {
    /// Wrap `inner` with the Priority constraint.
    #[must_use]
    pub fn new(inner: P) -> Self {
        Self { inner }
    }

    /// Access the wrapped policy.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Ranked + OnlinePolicy> OnlinePolicy for Priority<P> {
    fn name(&self) -> String {
        format!("priority-{}", self.inner.name())
    }

    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        order_into_by_rank(self, ctx, scratch);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        allocate_into_by_rank(self, ctx, scratch);
    }

    fn reads_progress_keys(&self) -> bool {
        self.inner.reads_progress_keys()
    }
}

impl<P: Ranked> Ranked for Priority<P> {
    fn rank(&self, a: &AppState) -> u128 {
        u128::from(!a.started_io) << 127 | self.inner.rank(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{MaxSysEff, MinDilation};
    use crate::policy::test_support::{app, ctx};
    use iosched_model::AppId;

    #[test]
    fn in_flight_transfer_is_never_preempted() {
        let mut a0 = app(0, 10.0);
        a0.dilation_ratio = 0.9; // inner policy would stall it…
        a0.started_io = true; // …but it already started its I/O.
        let mut a1 = app(1, 10.0);
        a1.dilation_ratio = 0.1;
        let pending = [a0, a1];
        let c = ctx(10.0, &pending);

        let plain = MinDilation.allocate(&c);
        assert!(plain.granted(AppId(1)).approx_eq(c.total_bw));

        let prio = Priority::new(MinDilation).allocate(&c);
        assert!(prio.granted(AppId(0)).approx_eq(c.total_bw));
        assert!(prio.granted(AppId(1)).is_zero());
    }

    #[test]
    fn within_groups_inner_order_applies() {
        let mut a0 = app(0, 4.0);
        a0.started_io = true;
        a0.syseff_key = 10.0;
        let mut a1 = app(1, 4.0);
        a1.started_io = true;
        a1.syseff_key = 100.0; // preferred by MaxSysEff (descending key)
        let mut a2 = app(2, 4.0);
        a2.syseff_key = 500.0; // best key but has not started
        let pending = [a0, a1, a2];
        let c = ctx(10.0, &pending);
        let alloc = Priority::new(MaxSysEff).allocate(&c);
        // Started apps soak 8 GiB/s (a1 before a0 — inner order), the
        // newcomer gets the remaining 2 despite its top key.
        assert!(alloc
            .granted(AppId(1))
            .approx_eq(iosched_model::Bw::gib_per_sec(4.0)));
        assert!(alloc
            .granted(AppId(0))
            .approx_eq(iosched_model::Bw::gib_per_sec(4.0)));
        assert!(alloc
            .granted(AppId(2))
            .approx_eq(iosched_model::Bw::gib_per_sec(2.0)));
    }

    #[test]
    fn without_started_apps_matches_inner_policy() {
        let mut a0 = app(0, 10.0);
        a0.syseff_key = 1.0;
        let mut a1 = app(1, 10.0);
        a1.syseff_key = 5.0;
        let pending = [a0, a1];
        let c = ctx(10.0, &pending);
        assert_eq!(
            Priority::new(MaxSysEff).allocate(&c),
            MaxSysEff.allocate(&c)
        );
    }

    #[test]
    fn name_is_prefixed() {
        assert_eq!(Priority::new(MinDilation).name(), "priority-mindilation");
    }
}

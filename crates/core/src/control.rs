//! Closed-loop bandwidth scheduling: a PI feedback controller over the
//! engine's congestion telemetry.
//!
//! Every policy in the paper is *open-loop*: heuristics and periodic
//! schedules decide from static application models, so none of them can
//! react when the actual bandwidth pressure deviates from the plan
//! (external communication storms, disk-locality interference). The
//! control family closes the loop: the simulator's telemetry tap derives
//! a [`CongestionSignal`] from the observed offered/granted/delivered
//! bandwidths and hands it to the policy through
//! [`SchedContext::signal`]; a [`PiController`] tracks a *delivered
//! utilization* setpoint and throttles the granted budget, while
//! per-application [`TokenBucket`]s bound how long any one follower can
//! burst above its fair share. (See "Mitigating Shared Storage
//! Congestion Using Control Theory" in PAPERS.md for the approach this
//! follows.)
//!
//! ## The control law
//!
//! [`ControlPolicy`] observes the signal at every scheduling event:
//!
//! 1. **Uncongested bypass** — while the offered load fits the pipe
//!    (`contention ≤ 1`) there is nothing to control: every pending
//!    application is served through the shared greedy grant loop
//!    ([`crate::policy::greedy_allocate`]) in most-behind-first order.
//! 2. **Sensing** — the delivered-utilization sample is smoothed by an
//!    exponential moving average with time constant `win` (the
//!    controller must not chase single inter-event intervals).
//! 3. **PI update** — the error `u − set` drives a clamped PI term whose
//!    output `c ∈ [0, 1]` scales the granted budget `c·B`. Under pure
//!    capacity congestion the pipe stays full (`u = 1 > set`), the
//!    output saturates at 1 and the policy degenerates to
//!    work-conserving most-behind-first — exactly the §3.1 greedy
//!    regime. When delivery falls below the setpoint while demand still
//!    exceeds capacity (disk-locality interference eating the delivered
//!    bandwidth), the budget shrinks, concurrent streams are shed and
//!    delivery recovers toward the setpoint.
//! 4. **Throttled grant** — the most-behind application is always
//!    granted its full card limit (the §3.1 "favoring" move, and the
//!    budget floor — the loop may serialize but never stall); followers
//!    are capped by their token buckets inside the budget; a final spill
//!    pass re-offers any leftover budget cap-free so the policy stays
//!    work-conserving *within the budget the controller chose*.
//!
//! All state advances only on observed `(now, signal)` pairs, so a
//! simulation driving this policy remains a deterministic function of
//! the scenario — reruns are bit-identical.
//!
//! A decision costs per grant, not per pending application, beyond two
//! walks: the token buckets are kept parallel to the `AppId`-ordered
//! pending slice and carried from one event to the next by a merge walk,
//! and the passes read one lazily extended selection of the
//! most-behind-first order, so only the prefix they consume is ranked.

use crate::heuristics::MinDilation;
use crate::policy::{
    allocate_into_by_rank, order_into_by_rank, AllocScratch, AppState, OnlinePolicy, SchedContext,
    Selection,
};
use iosched_model::{AppId, Bw, Bytes, Time};
use serde::{Deserialize, Serialize};

/// Derived congestion measurement handed to policies via
/// [`SchedContext::signal`]. Produced by the simulator's telemetry tap
/// from the last completed inter-event interval; `None` in the context
/// means "no observation yet" (the initial allocation, or a driver
/// without telemetry) and policies fall back to estimating from the
/// pending set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CongestionSignal {
    /// Delivered bandwidth over the usable capacity, `∈ [0, 1]`. Under
    /// disk-locality interference this is *below* the granted fraction —
    /// the gap is what the controller reacts to. Defined as 1 when the
    /// capacity is zero (a fully blocked pipe is vacuously full).
    pub utilization: f64,
    /// Offered load (sum of card limits of the pending applications)
    /// over the usable capacity. `> 1` means the applications want more
    /// than the pipe can carry — the congestion regime. Defined as 0
    /// when the capacity is zero.
    pub contention: f64,
    /// Outstanding bytes across all pending applications.
    pub backlog: Bytes,
    /// Number of applications currently wanting I/O.
    pub pending: usize,
}

impl CongestionSignal {
    /// True while the offered load exceeds the usable capacity.
    #[must_use]
    pub fn is_congested(&self) -> bool {
        self.contention > 1.0 + 1e-9
    }

    /// Conservative estimate from a pending-set snapshot alone, used
    /// when no telemetry observation exists yet: assume the pipe fills
    /// up to the offered load (no interference knowledge).
    #[must_use]
    pub fn estimate(ctx: &SchedContext<'_>) -> Self {
        let offered: Bw = ctx.pending.iter().map(|a| a.max_bw).sum();
        let capacity = ctx.total_bw;
        let (utilization, contention) = if capacity.get() > 0.0 {
            let contention = (offered / capacity).max(0.0);
            (contention.min(1.0), contention)
        } else {
            (1.0, 0.0)
        };
        Self {
            utilization,
            contention,
            backlog: Bytes::ZERO,
            pending: ctx.pending.len(),
        }
    }
}

/// A clamped proportional–integral controller tracking a setpoint on a
/// measured value in `[0, 1]`; output in `[0, 1]` (1 = fully open).
///
/// The integral term carries conditional anti-windup: it is clamped so
/// its contribution never exceeds the full output range, which bounds
/// recovery time after a long saturation stretch.
#[derive(Debug, Clone)]
pub struct PiController {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain (per second of error).
    pub ki: f64,
    /// Target for the measured value.
    pub setpoint: f64,
    integral: f64,
}

impl PiController {
    /// A controller at rest (zero integral state).
    #[must_use]
    pub fn new(kp: f64, ki: f64, setpoint: f64) -> Self {
        Self {
            kp,
            ki,
            setpoint,
            integral: 0.0,
        }
    }

    /// Advance the controller by `dt` seconds with the new measurement
    /// and return the output: `clamp(1 + kp·e + ki·∫e, 0, 1)` with
    /// `e = measured − setpoint`. The bias of 1 starts the loop fully
    /// open, so the policy behaves like the greedy roster until the
    /// telemetry shows delivery falling short. The integral is clamped
    /// into `[-1/ki, 0]`: with the output biased fully open, positive
    /// windup could only delay the reaction to a congestion onset
    /// without ever changing the (already saturated) output.
    pub fn update(&mut self, measured: f64, dt: f64) -> f64 {
        let e = measured - self.setpoint;
        if self.ki > 0.0 && dt > 0.0 {
            self.integral = (self.integral + e * dt).clamp(-1.0 / self.ki, 0.0);
        }
        (1.0 + self.kp * e + self.ki * self.integral).clamp(0.0, 1.0)
    }

    /// Current integral state (inspection hook for tests).
    #[must_use]
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Drop the accumulated integral state (the loop re-opened: the
    /// congestion episode it was tracking is over).
    pub fn reset(&mut self) {
        self.integral = 0.0;
    }
}

/// Fluid token bucket bounding one follower's sustained bandwidth.
///
/// Tokens are bytes of "allowance": they refill at the fair sustained
/// rate and drain at the granted rate, clamped to a burst of one
/// window's worth. The admissible *rate* at any instant is
/// `refill + tokens/win` — a full bucket lets a follower burst to twice
/// its fair share (plus whatever the spill pass adds), an empty one
/// pins it to the sustained rate.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    /// Current allowance in bytes.
    tokens: f64,
    /// Rate granted at the previous event (drains the bucket over the
    /// elapsed interval).
    last_grant: f64,
}

impl TokenBucket {
    /// A bucket starting full for the given refill rate and window.
    #[must_use]
    pub fn full(refill: Bw, win: Time) -> Self {
        Self {
            tokens: (refill * win).get(),
            last_grant: 0.0,
        }
    }

    /// Advance by `dt` seconds: refill minus the previously granted
    /// drain, clamped into `[0, refill·win]`.
    pub fn advance(&mut self, refill: Bw, win: Time, dt: f64) {
        let burst = (refill * win).get().max(0.0);
        self.tokens = (self.tokens + (refill.get() - self.last_grant) * dt).clamp(0.0, burst);
    }

    /// Admissible rate right now.
    #[must_use]
    pub fn admissible(&self, refill: Bw, win: Time) -> Bw {
        let w = win.get().max(f64::MIN_POSITIVE);
        Bw::new(refill.get() + self.tokens / w)
    }

    /// Record the rate granted at this event (drained until the next
    /// observation).
    pub fn note_grant(&mut self, grant: Bw) {
        self.last_grant = grant.get();
    }

    /// Current allowance in bytes (inspection hook for tests).
    #[must_use]
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// The adaptive closed-loop policy: PI-throttled, token-bucket-shaped
/// most-behind-first scheduling (registry name `control:pi`, grammar
/// `control:pi[:kp=..][:ki=..][:set=..][:win=..]`).
#[derive(Debug, Clone)]
pub struct ControlPolicy {
    pi: PiController,
    /// Signal-smoothing window (EWMA time constant) and token-bucket
    /// burst horizon, in seconds.
    window: Time,
    /// Smoothed utilization observation (congested intervals only).
    smoothed: Option<f64>,
    /// Clock of the last allocation event (bucket/EWMA/PI time base).
    last_obs: Option<Time>,
    /// Whether the last observed interval was congested: the PI loop
    /// only accrues integral weight across *consecutive* congested
    /// observations, so benign demand-limited lulls carry no windup
    /// into the next storm.
    was_congested: bool,
    /// Last controller output (inspection hook; 1 until the first
    /// congested update).
    throttle: f64,
    /// Per-application burst allowances, parallel to the pending slice
    /// of the last allocation (so in `AppId` order).
    buckets: Vec<(AppId, TokenBucket)>,
    /// Reused buffers: the next event's buckets while they are merged
    /// from `buckets`, and the spill pass's grants.
    next_buckets: Vec<(AppId, TokenBucket)>,
    spill: Vec<(AppId, Bw)>,
    name: String,
}

impl ControlPolicy {
    /// Default proportional gain.
    pub const DEFAULT_KP: f64 = 0.5;
    /// Default integral gain (per second).
    pub const DEFAULT_KI: f64 = 0.05;
    /// Default delivered-utilization setpoint.
    pub const DEFAULT_SETPOINT: f64 = 0.9;
    /// Default sensing window in seconds.
    pub const DEFAULT_WINDOW_SECS: f64 = 30.0;

    /// Build the controller with explicit gains. Callers are expected to
    /// have validated the gains (the registry grammar does); out-of-range
    /// values here are a programming error.
    ///
    /// # Panics
    /// Panics on non-finite or negative gains, a setpoint outside
    /// `(0, 1]`, or a non-positive window.
    #[must_use]
    pub fn new(kp: f64, ki: f64, setpoint: f64, window_secs: f64) -> Self {
        assert!(kp.is_finite() && kp >= 0.0, "kp must be finite and >= 0");
        assert!(ki.is_finite() && ki >= 0.0, "ki must be finite and >= 0");
        assert!(
            setpoint.is_finite() && setpoint > 0.0 && setpoint <= 1.0,
            "setpoint must be in (0, 1]"
        );
        assert!(
            window_secs.is_finite() && window_secs > 0.0,
            "window must be positive"
        );
        Self {
            pi: PiController::new(kp, ki, setpoint),
            window: Time::secs(window_secs),
            smoothed: None,
            last_obs: None,
            was_congested: false,
            throttle: 1.0,
            buckets: Vec::new(),
            next_buckets: Vec::new(),
            spill: Vec::new(),
            name: "control:pi".into(),
        }
    }

    /// The default controller (`control:pi`).
    #[must_use]
    pub fn pi_default() -> Self {
        Self::new(
            Self::DEFAULT_KP,
            Self::DEFAULT_KI,
            Self::DEFAULT_SETPOINT,
            Self::DEFAULT_WINDOW_SECS,
        )
    }

    /// Override the report name (the registry labels instances with the
    /// factory's canonical name, e.g. `control:pi:kp=1`).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Last controller output (1 = budget fully open).
    #[must_use]
    pub fn throttle(&self) -> f64 {
        self.throttle
    }

    /// Observe a *congested* interval: EWMA-smooth the utilization and
    /// advance the PI loop by the elapsed congested time. Returns the
    /// budget fraction.
    ///
    /// Only congested observations feed the loop. Uncongested intervals
    /// are demand-limited — their low utilization says "the applications
    /// want little", not "the pipe under-delivers" — and integrating
    /// that error would wind the integral to its clamp during benign
    /// lulls, causing minutes of spurious hard throttling at the next
    /// congestion onset. `dt` is the caller-supplied span since the
    /// previous *congested* observation (zero when the last event was
    /// uncongested, so a lull never accrues integral weight).
    fn observe(&mut self, utilization: f64, dt: f64) -> f64 {
        let s = match self.smoothed {
            None => utilization,
            Some(prev) => {
                let alpha = 1.0 - (-dt / self.window.as_secs()).exp();
                prev + alpha * (utilization - prev)
            }
        };
        self.smoothed = Some(s);
        self.throttle = self.pi.update(s, dt);
        self.throttle
    }

    /// Carry the buckets over to this event's pending set in one merge
    /// walk (both lists are in `AppId` order), then advance each by the
    /// elapsed interval. A bucket whose application left the pending set
    /// (it finished its transfer and went computing) is dropped: when it
    /// returns it starts with a *full* bucket and a clean grant history,
    /// since an application that just finished computing has earned its
    /// burst, and a stale `last_grant` from its previous transfer must
    /// not keep draining it.
    fn sync_buckets(&mut self, pending: &[AppState], refill: Bw, dt: f64) {
        let mut old = self.buckets.iter().peekable();
        self.next_buckets.clear();
        for app in pending {
            while old.next_if(|(id, _)| *id < app.id).is_some() {}
            let mut bucket = match old.next_if(|(id, _)| *id == app.id) {
                Some(&(_, bucket)) => bucket,
                None => TokenBucket::full(refill, self.window),
            };
            bucket.advance(refill, self.window, dt);
            self.next_buckets.push((app.id, bucket));
        }
        std::mem::swap(&mut self.buckets, &mut self.next_buckets);
    }

    /// Record this event's grants (`AppId`-sorted) in the buckets, zero
    /// for a stalled application, in one merge walk.
    fn note_grants(&mut self, grants: &[(AppId, Bw)]) {
        let mut grants = grants.iter().peekable();
        for (id, bucket) in &mut self.buckets {
            let granted = grants
                .next_if(|(g, _)| *g == *id)
                .map_or(Bw::ZERO, |&(_, bw)| bw);
            bucket.note_grant(granted);
        }
    }
}

impl OnlinePolicy for ControlPolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    /// Most-behind-first: ascending `ρ̃/ρ`, ties by `AppId`, which is
    /// exactly MinDilation's order.
    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        order_into_by_rank(&MinDilation, ctx, scratch);
    }

    /// The control law. The greedy passes read one `Selection` of the
    /// most-behind-first order, so only the prefix they consume is
    /// ranked.
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        if ctx.pending.is_empty() {
            scratch.alloc.grants.clear();
            return;
        }
        let signal = ctx
            .signal
            .unwrap_or_else(|| CongestionSignal::estimate(ctx));
        let dt_since = self
            .last_obs
            .map_or(0.0, |t| (ctx.now - t).as_secs().max(0.0));
        self.last_obs = Some(ctx.now);

        let n = ctx.pending.len();
        let refill = ctx.total_bw * (self.pi.setpoint / n as f64);
        self.sync_buckets(ctx.pending, refill, dt_since);

        if !signal.is_congested() {
            // Nothing to control: serve everyone, most-behind first. The
            // congestion episode the loop was tracking is over, so the
            // controller state is dropped — a *new* storm must start
            // from the open position and learn from its own delivery,
            // not inherit a deep integral (or a stale smoothed
            // utilization) from an episode that ended.
            self.was_congested = false;
            self.pi.reset();
            self.smoothed = None;
            self.throttle = 1.0;
            allocate_into_by_rank(&MinDilation, ctx, scratch);
            self.note_grants(&scratch.alloc.grants);
            return;
        }

        let pi_dt = if self.was_congested { dt_since } else { 0.0 };
        self.was_congested = true;
        let c = self.observe(signal.utilization, pi_dt);

        // Congested: grant inside the PI budget. The most-behind
        // application always fits whole (budget floor = its card limit),
        // so the loop can serialize but never stall the system.
        let grants = &mut scratch.alloc.grants;
        grants.clear();
        let mut order = Selection::new(&MinDilation, ctx.pending, &mut scratch.ranked);
        let head = &ctx.pending[order.get(0)];
        let budget = (ctx.total_bw * c).max(head.max_bw).min(ctx.total_bw);

        // Pass 1 — bucket-capped greedy within the budget; the head is
        // never capped.
        let buckets = &self.buckets;
        order.grant(
            ctx.pending,
            budget,
            |p, i| {
                let max_bw = ctx.pending[i].max_bw;
                if p == 0 {
                    max_bw
                } else {
                    max_bw.min(buckets[i].1.admissible(refill, self.window))
                }
            },
            grants,
        );
        grants.sort_unstable_by_key(|&(id, _)| id);

        // Pass 2 — spill: whatever budget the caps left unused is
        // re-offered cap-free in the same order (work conservation
        // within the chosen budget), and added to the first pass's
        // grants.
        let first: Bw = grants.iter().map(|(_, bw)| *bw).sum();
        let leftover = (budget - first).snap_zero();
        if leftover.get() > 0.0 {
            let spill = &mut self.spill;
            spill.clear();
            let granted = |id: AppId| {
                grants
                    .binary_search_by_key(&id, |&(g, _)| g)
                    .map_or(Bw::ZERO, |k| grants[k].1)
            };
            order.grant(
                ctx.pending,
                leftover,
                |_, i| {
                    let app = &ctx.pending[i];
                    (app.max_bw - granted(app.id)).max(Bw::ZERO)
                },
                spill,
            );
            let capped = grants.len();
            for &(id, bw) in spill.iter() {
                match grants[..capped].binary_search_by_key(&id, |&(g, _)| g) {
                    Ok(k) => grants[k].1 += bw,
                    Err(_) => grants.push((id, bw)),
                }
            }
            grants.sort_unstable_by_key(|&(id, _)| id);
        }
        self.note_grants(grants);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::{app, ctx};
    use crate::policy::Allocation;

    fn signal(utilization: f64, contention: f64) -> CongestionSignal {
        CongestionSignal {
            utilization,
            contention,
            backlog: Bytes::ZERO,
            pending: 2,
        }
    }

    #[test]
    fn pi_output_saturates_open_above_the_setpoint() {
        let mut pi = PiController::new(0.5, 0.05, 0.9);
        // Pipe full: stays wide open.
        for _ in 0..100 {
            assert_eq!(pi.update(1.0, 10.0), 1.0);
        }
        // Integral is clamped, so recovery is immediate once the error
        // flips sign hard.
        assert!(pi.update(0.2, 10.0) < 1.0);
    }

    #[test]
    fn pi_closes_under_sustained_underdelivery() {
        let mut pi = PiController::new(0.5, 0.05, 0.9);
        let mut out = 1.0;
        for _ in 0..200 {
            out = pi.update(0.5, 5.0);
        }
        assert!(out < 0.2, "sustained u=0.5 must throttle hard, got {out}");
        // And a recovered plant re-opens the loop.
        for _ in 0..200 {
            out = pi.update(1.0, 5.0);
        }
        assert!(out > 0.9, "recovered u=1.0 must re-open, got {out}");
    }

    #[test]
    fn token_bucket_bounds_sustained_rate() {
        let refill = Bw::gib_per_sec(1.0);
        let win = Time::secs(10.0);
        let mut b = TokenBucket::full(refill, win);
        // Full bucket: admissible rate is refill + burst/win = 2×refill.
        assert!(b.admissible(refill, win).approx_eq(Bw::gib_per_sec(2.0)));
        // Burst at 2 GiB/s for 10 s drains it to empty.
        b.note_grant(Bw::gib_per_sec(2.0));
        b.advance(refill, win, 10.0);
        assert!(b.tokens() < 1e-6);
        assert!(b.admissible(refill, win).approx_eq(refill));
        // Idling for a window refills it completely.
        b.note_grant(Bw::ZERO);
        b.advance(refill, win, 10.0);
        assert!(b.admissible(refill, win).approx_eq(Bw::gib_per_sec(2.0)));
    }

    #[test]
    fn uncongested_bypass_equals_plain_greedy() {
        let pending = [app(0, 3.0), app(1, 3.0)];
        let mut c = ctx(10.0, &pending);
        c.signal = Some(signal(0.6, 0.6));
        let mut policy = ControlPolicy::pi_default();
        let alloc = policy.allocate(&c);
        alloc.validate(&c).unwrap();
        // Demand fits: everyone gets its card limit.
        assert!(alloc.granted(AppId(0)).approx_eq(Bw::gib_per_sec(3.0)));
        assert!(alloc.granted(AppId(1)).approx_eq(Bw::gib_per_sec(3.0)));
    }

    #[test]
    fn congested_allocation_favors_the_most_behind_and_stays_valid() {
        let mut a0 = app(0, 10.0);
        a0.dilation_ratio = 0.9;
        let mut a1 = app(1, 10.0);
        a1.dilation_ratio = 0.2; // far behind
        let pending = [a0, a1];
        let mut c = ctx(10.0, &pending);
        c.signal = Some(signal(1.0, 2.0));
        let mut policy = ControlPolicy::pi_default();
        let alloc = policy.allocate(&c);
        alloc.validate(&c).unwrap();
        // Head gets the full pipe (its card limit covers B).
        assert!(alloc.granted(AppId(1)).approx_eq(c.total_bw));
        assert!(alloc.granted(AppId(0)).is_zero());
    }

    #[test]
    fn budget_is_work_conserving_when_the_loop_is_open() {
        // u at the saturated pipe keeps the controller open: the whole
        // capacity is granted even though the head cannot absorb it.
        let pending = [app(0, 4.0), app(1, 4.0), app(2, 4.0)];
        let mut c = ctx(10.0, &pending);
        c.signal = Some(signal(1.0, 1.2));
        let mut policy = ControlPolicy::pi_default();
        let alloc = policy.allocate(&c);
        alloc.validate(&c).unwrap();
        assert!(
            alloc.total().approx_eq(c.total_bw),
            "open loop must fill the pipe, granted {}",
            alloc.total()
        );
    }

    #[test]
    fn sustained_underdelivery_serializes_down_to_the_head() {
        let mut policy = ControlPolicy::pi_default();
        let pending = [app(0, 10.0), app(1, 10.0), app(2, 10.0)];
        // Repeated congested events where only half the granted bandwidth
        // is delivered: the budget must shrink toward the head's grant.
        let mut last = Allocation::empty();
        for step in 0..400 {
            let mut c = ctx(10.0, &pending);
            c.now = Time::secs(100.0 + step as f64 * 5.0);
            c.signal = Some(signal(0.5, 3.0));
            last = policy.allocate(&c);
            last.validate(&c).unwrap();
        }
        assert!(policy.throttle() < 0.1, "throttle {}", policy.throttle());
        // Head (ties break by id → app 0) still runs at full card limit.
        assert!(last.granted(AppId(0)).approx_eq(Bw::gib_per_sec(10.0)));
        // Everyone else was shed.
        assert!(last.granted(AppId(1)).is_zero());
        assert!(last.granted(AppId(2)).is_zero());
    }

    /// Regression: demand-limited lulls (uncongested, low utilization)
    /// must not wind the integral down — the first event of the next
    /// storm starts with the loop fully open, not minutes of spurious
    /// serialization.
    #[test]
    fn benign_lulls_do_not_wind_up_the_loop() {
        let mut policy = ControlPolicy::pi_default();
        let lone = [app(0, 2.0)];
        for step in 0..200 {
            let mut c = ctx(10.0, &lone);
            c.now = Time::secs(step as f64 * 10.0);
            c.signal = Some(signal(0.2, 0.2)); // demand-limited idle pipe
            policy.allocate(&c).validate(&c).unwrap();
        }
        // Storm onset: the whole capacity is granted immediately.
        let storm = [app(0, 10.0), app(1, 10.0), app(2, 10.0)];
        let mut c = ctx(10.0, &storm);
        c.now = Time::secs(3_000.0);
        c.signal = Some(signal(1.0, 3.0));
        let alloc = policy.allocate(&c);
        alloc.validate(&c).unwrap();
        assert!(
            policy.throttle() > 0.9,
            "lull wound up the loop: throttle {}",
            policy.throttle()
        );
        assert!(alloc.total().approx_eq(c.total_bw));
    }

    /// Regression: the integral wound up by one storm must not carry
    /// into the next — after the loop re-opens (any uncongested
    /// observation), a new, healthy congestion episode starts from the
    /// open position.
    #[test]
    fn controller_state_resets_between_congestion_episodes() {
        let mut policy = ControlPolicy::pi_default();
        let pending = [app(0, 10.0), app(1, 10.0), app(2, 10.0)];
        // Storm A: sustained under-delivery throttles the loop hard.
        for step in 0..400 {
            let mut c = ctx(10.0, &pending);
            c.now = Time::secs(step as f64 * 5.0);
            c.signal = Some(signal(0.5, 3.0));
            policy.allocate(&c).validate(&c).unwrap();
        }
        assert!(policy.throttle() < 0.1);
        // The lull between episodes re-opens the loop.
        let mut c = ctx(10.0, &pending[..1]);
        c.now = Time::secs(2_100.0);
        c.signal = Some(signal(0.1, 0.1));
        policy.allocate(&c).validate(&c).unwrap();
        // Storm B delivers perfectly: it must start fully open, not
        // spend minutes unwinding storm A's integral.
        let mut c = ctx(10.0, &pending);
        c.now = Time::secs(2_110.0);
        c.signal = Some(signal(1.0, 3.0));
        let alloc = policy.allocate(&c);
        alloc.validate(&c).unwrap();
        assert!(
            policy.throttle() > 0.9,
            "storm A's integral leaked into storm B: throttle {}",
            policy.throttle()
        );
        assert!(alloc.total().approx_eq(c.total_bw));
    }

    /// The allowance in the bucket of pending application `id`.
    fn tokens(policy: &ControlPolicy, id: usize) -> f64 {
        let (_, bucket) = policy
            .buckets
            .iter()
            .find(|(a, _)| *a == AppId(id))
            .expect("a pending application has a bucket");
        bucket.tokens()
    }

    /// Regression: an application that leaves the pending set (finished
    /// its transfer, went computing) gets its bucket dropped, so it
    /// returns with a full burst and no stale grant history draining it.
    #[test]
    fn buckets_reset_when_an_application_leaves_pending() {
        let mut policy = ControlPolicy::pi_default();
        // app 0 (most behind, small card) heads; app 1 spills above its
        // fair share and drains its bucket over repeated intervals.
        let mut a0 = app(0, 4.0);
        a0.dilation_ratio = 0.1;
        let both = [a0, app(1, 10.0)];
        for step in 0..20 {
            let mut c = ctx(10.0, &both);
            c.now = Time::secs(step as f64 * 10.0);
            c.signal = Some(signal(1.0, 1.4));
            policy.allocate(&c).validate(&c).unwrap();
        }
        let refill = Bw::gib_per_sec(10.0 * ControlPolicy::DEFAULT_SETPOINT / 2.0);
        let burst = (refill * policy.window).get();
        let drained = tokens(&policy, 1);
        assert!(drained < burst, "follower over fair share must drain");
        // App 1 leaves the pending set: its bucket is dropped…
        let mut c = ctx(10.0, &both[..1]);
        c.now = Time::secs(210.0);
        c.signal = Some(signal(1.0, 1.4));
        policy.allocate(&c).validate(&c).unwrap();
        assert_eq!(policy.buckets.len(), 1);
        // …and on return it starts with a full, freshly-sized burst.
        let mut c = ctx(10.0, &both);
        c.now = Time::secs(220.0);
        c.signal = Some(signal(1.0, 1.4));
        policy.allocate(&c).validate(&c).unwrap();
        let back = tokens(&policy, 1);
        assert!(
            (back - burst).abs() < 1e-9,
            "returning app bucket {back} should be the full burst {burst}"
        );
    }

    #[test]
    fn allocation_is_deterministic_across_reruns() {
        let run = || {
            let mut policy = ControlPolicy::pi_default();
            let mut bits = Vec::new();
            for step in 0..50 {
                let mut a0 = app(0, 6.0);
                a0.dilation_ratio = 0.5;
                let pending = [a0, app(1, 6.0), app(2, 6.0)];
                let mut c = ctx(10.0, &pending);
                c.now = Time::secs(step as f64 * 3.0);
                c.signal = Some(signal(0.7 + 0.001 * step as f64, 1.8));
                let alloc = policy.allocate(&c);
                for (id, bw) in &alloc.grants {
                    bits.push((id.0, bw.get().to_bits()));
                }
            }
            bits
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fallback_estimate_is_used_without_telemetry() {
        // No signal in the context: the policy estimates contention from
        // the card limits and still produces a valid allocation.
        let pending = [app(0, 10.0), app(1, 10.0)];
        let c = ctx(10.0, &pending);
        let est = CongestionSignal::estimate(&c);
        assert!(est.is_congested());
        assert_eq!(est.utilization, 1.0);
        let mut policy = ControlPolicy::pi_default();
        let alloc = policy.allocate(&c);
        alloc.validate(&c).unwrap();
        assert!(alloc.total().approx_eq(c.total_bw));
    }

    #[test]
    #[should_panic(expected = "setpoint")]
    fn constructor_rejects_bad_setpoint() {
        let _ = ControlPolicy::new(0.5, 0.05, 2.0, 30.0);
    }
}

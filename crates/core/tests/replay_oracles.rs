//! Oracle tests for the two policies that decide from state kept across
//! events: the timetable replay of a periodic schedule, whose candidate
//! table must grant what a per-pending-application lookup of its plans
//! grants, and the `control:pi` controller, stepped in lockstep with a
//! reference controller that keeps its token buckets in a map, orders
//! the pending set by a full comparator sort and runs the shared greedy
//! loop for each pass. Both must agree bit for bit at every decision.

use iosched_core::control::{CongestionSignal, ControlPolicy, PiController, TokenBucket};
use iosched_core::periodic::{
    build_schedule, AppPlan, InsertionHeuristic, PeriodicAppSpec, PeriodicSchedule,
    PlannedInstance, TimetablePolicy,
};
use iosched_core::policy::{
    greedy_allocate, AllocScratch, Allocation, AppState, OnlinePolicy, SchedContext,
};
use iosched_model::{AppId, Bw, Bytes, Platform, Time, EPS};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Uniform `[0, 1)` noise for draw `k` of seed `seed` (splitmix64).
fn unit(seed: u64, k: u64) -> f64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

/// A stream of draws from one seed.
struct Draws {
    seed: u64,
    k: u64,
}

impl Draws {
    fn new(seed: u64) -> Self {
        Self { seed, k: 0 }
    }

    /// Uniform in `[0, 1)`.
    fn next(&mut self) -> f64 {
        self.k += 1;
        unit(self.seed, self.k)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        ((self.next() * n as f64) as usize).min(n - 1)
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.next() < p
    }
}

fn bits(grants: &[(AppId, Bw)]) -> Vec<(AppId, u64)> {
    grants
        .iter()
        .map(|&(id, bw)| (id, bw.get().to_bits()))
        .collect()
}

// ---------------------------------------------------------------------
// The timetable replay.
// ---------------------------------------------------------------------

/// The replay's decision by a per-pending-application lookup: the first
/// plan of the application by binary search over `(app, plan position)`
/// pairs, the first of its windows that holds the period offset, capped
/// by `max_bw`, then the proportional squeeze onto a shrunk capacity.
fn lookup_grants(schedule: &PeriodicSchedule, ctx: &SchedContext<'_>) -> Vec<(AppId, Bw)> {
    let mut plan_index: Vec<(AppId, u32)> = schedule
        .plans
        .iter()
        .enumerate()
        .map(|(k, p)| (p.app, u32::try_from(k).unwrap()))
        .collect();
    plan_index.sort_unstable_by_key(|&(id, _)| id);
    plan_index.dedup_by_key(|&mut (id, _)| id);
    let period = schedule.period.as_secs();
    let offset = Time::secs(ctx.now.as_secs().rem_euclid(period));
    let planned_bw = |id: AppId| {
        plan_index
            .binary_search_by_key(&id, |&(pid, _)| pid)
            .ok()
            .map_or(Bw::ZERO, |k| {
                let plan = &schedule.plans[plan_index[k].1 as usize];
                plan.instances
                    .iter()
                    .find(|i| offset.approx_ge(i.io_start) && offset.approx_lt(i.io_end))
                    .map_or(Bw::ZERO, |i| i.io_bw)
            })
    };
    let mut grants: Vec<(AppId, Bw)> = ctx
        .pending
        .iter()
        .filter_map(|app| {
            let bw = planned_bw(app.id).min(app.max_bw);
            (bw.get() > 0.0).then_some((app.id, bw))
        })
        .collect();
    let total: Bw = grants.iter().map(|(_, bw)| *bw).sum();
    if total.approx_gt(ctx.total_bw) && total.get() > 0.0 {
        let scale = ctx.total_bw.get() / total.get();
        for (_, bw) in grants.iter_mut() {
            *bw = *bw * scale;
        }
    }
    grants
}

/// A schedule the insertion heuristics build for a random roster.
fn built_schedule(draws: &mut Draws) -> PeriodicSchedule {
    let platform = Platform::new("t", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0));
    let n = 2 + draws.below(7);
    let apps: Vec<PeriodicAppSpec> = (0..n)
        .map(|k| {
            PeriodicAppSpec::new(
                3 * k + draws.below(3),
                50 + draws.below(450) as u64,
                Time::secs(1.0 + draws.next() * 30.0),
                Bytes::gib(1.0 + draws.next() * 40.0),
            )
        })
        .collect();
    let span = apps
        .iter()
        .map(|a| (a.work + a.vol / platform.app_max_bw(a.procs)).as_secs())
        .fold(0.0, f64::max);
    let heuristic = if draws.chance(0.5) {
        InsertionHeuristic::Congestion
    } else {
        InsertionHeuristic::Throughput
    };
    build_schedule(
        &platform,
        &apps,
        Time::secs(span * (1.0 + 2.0 * draws.next())),
        heuristic,
    )
}

/// A hand-made schedule over a period between 1 s and 10⁶ s. Window
/// edges come from a small pool of instants (0 and `T` included), each
/// moved by nothing, one or two ulps, or up to three comparison
/// tolerances, so windows abut, edges fall within `EPS` of each other,
/// and some windows have zero length. One application has two plans,
/// and some plans belong to applications that are never pending.
fn hand_schedule(draws: &mut Draws) -> PeriodicSchedule {
    let period = 10f64.powf(draws.next() * 6.0);
    let tol = EPS * period.max(1.0);
    let mut pool: Vec<f64> = (0..5).map(|_| draws.next() * period).collect();
    pool.extend([0.0, period]);
    pool.sort_by(f64::total_cmp);
    let edge = |draws: &mut Draws, at: f64| -> f64 {
        let moved = match draws.below(8) {
            0 | 1 => at,
            2 => at.next_up(),
            3 => at.next_down(),
            4 => at.next_up().next_up(),
            5 => at.next_down().next_down(),
            _ => at + tol * (draws.next() * 6.0 - 3.0),
        };
        moved.clamp(0.0, period)
    };
    let plan = |draws: &mut Draws, id: usize| {
        let mut instances: Vec<PlannedInstance> = Vec::new();
        for index in 0..draws.below(4) {
            let i = draws.below(pool.len());
            // Same pool instant (zero or sub-tolerance length), the next
            // one (abutting neighbours), or any later one.
            let j = match draws.below(3) {
                0 => i,
                1 => (i + 1).min(pool.len() - 1),
                _ => i + draws.below(pool.len() - i),
            };
            let io_start = Time::secs(edge(draws, pool[i]));
            let io_end = Time::secs(edge(draws, pool[j]));
            instances.push(PlannedInstance {
                index,
                compute_start: io_start,
                compute_end: io_start,
                io_start,
                io_end,
                io_bw: Bw::gib_per_sec(0.5 + draws.next() * 20.0),
            });
        }
        instances.sort_by(|a, b| a.io_start.get().total_cmp(&b.io_start.get()));
        AppPlan {
            app: AppId(id),
            procs: 64,
            work: Time::secs(1.0),
            vol: Bytes::gib(1.0),
            instances,
        }
    };
    let n = 2 + draws.below(6);
    // Ids 0..n, plus 100.. for applications that are never pending.
    let mut plans: Vec<AppPlan> = (0..n).map(|id| plan(draws, id)).collect();
    plans.extend((0..2).map(|k| plan(draws, 100 + k)));
    // A second plan for one application, before or after its first.
    let who = draws.below(n);
    let twice = plan(draws, who);
    let at = draws.below(plans.len() + 1);
    plans.insert(at, twice);
    PeriodicSchedule {
        period: Time::secs(period),
        plans,
    }
}

/// Clocks that probe `schedule`: every window edge's image at `k·T` for
/// `k` up to 4·10⁹, exactly and one or two ulps to either side, plus
/// random instants.
fn probe_clocks(schedule: &PeriodicSchedule, draws: &mut Draws) -> Vec<f64> {
    let period = schedule.period.as_secs();
    let mut clocks = Vec::new();
    for plan in &schedule.plans {
        for inst in &plan.instances {
            for e in [inst.io_start.as_secs(), inst.io_end.as_secs()] {
                for k in [0.0, 1.0, 17.0, 1.0e6, 4.0e9] {
                    let t = k * period + e;
                    clocks.extend([
                        t,
                        t.next_up(),
                        t.next_down(),
                        t.next_up().next_up(),
                        t.next_down().next_down(),
                    ]);
                }
            }
        }
    }
    clocks.extend((0..16).map(|_| draws.next() * period * 10f64.powi(draws.below(7) as i32)));
    clocks
}

/// Replays that granted something, and replays the squeeze scaled.
static TIMETABLE_GRANTED: AtomicUsize = AtomicUsize::new(0);
static TIMETABLE_SQUEEZED: AtomicUsize = AtomicUsize::new(0);

/// Check the replay of `schedule` against [`lookup_grants`] at every
/// probe clock, on one scratch kept across the calls.
fn check_timetable(schedule: PeriodicSchedule, draws: &mut Draws) -> Result<(), TestCaseError> {
    let mut ids: Vec<usize> = schedule.plans.iter().map(|p| p.app.0).collect();
    ids.extend([50, 51]);
    ids.sort_unstable();
    ids.dedup();
    let clocks = probe_clocks(&schedule, draws);
    let mut policy = TimetablePolicy::new(schedule.clone());
    let mut scratch = AllocScratch::new();
    for now in clocks {
        // An `AppId`-ordered pending subset; most applications absorb
        // any plan, some cut it with a small card limit.
        let mut pending = Vec::new();
        for &id in &ids {
            if id >= 100 || !draws.chance(0.75) {
                continue;
            }
            let max_bw = if draws.chance(0.7) {
                64.0
            } else {
                0.1 + draws.next() * 20.0
            };
            pending.push(AppState {
                id: AppId(id),
                procs: 64,
                dilation_ratio: 1.0,
                syseff_key: 0.0,
                last_io_end: Time::ZERO,
                io_requested_at: Time::ZERO,
                started_io: false,
                max_bw: Bw::gib_per_sec(max_bw),
            });
        }
        let open = SchedContext {
            now: Time::secs(now),
            total_bw: Bw::gib_per_sec(1e6),
            pending: &pending,
            signal: None,
        };
        // The capacity the plan asks for, exactly, and below it.
        let planned: Bw = lookup_grants(&schedule, &open)
            .iter()
            .map(|(_, bw)| *bw)
            .sum();
        for total_bw in [open.total_bw, planned, planned * 0.5, planned * 0.013] {
            let ctx = SchedContext { total_bw, ..open };
            let expected = lookup_grants(&schedule, &ctx);
            policy.allocate_into(&ctx, &mut scratch);
            prop_assert_eq!(
                bits(&scratch.alloc.grants),
                bits(&expected),
                "grants at t = {:e} (T = {:e}), B = {}",
                now,
                schedule.period.as_secs(),
                total_bw
            );
            if !expected.is_empty() {
                TIMETABLE_GRANTED.fetch_add(1, Ordering::Relaxed);
                if total_bw.approx_lt(planned) {
                    TIMETABLE_SQUEEZED.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cases of [`timetable_table_grants_what_a_per_application_lookup_grants`].
    fn timetable_cases(seed in any::<u64>(), built in any::<bool>()) {
        let mut draws = Draws::new(seed);
        let schedule = if built {
            built_schedule(&mut draws)
        } else {
            hand_schedule(&mut draws)
        };
        check_timetable(schedule, &mut draws)?;
    }
}

/// The timetable's candidate table grants exactly what a lookup of every
/// pending application's plan grants, on schedules the insertion
/// heuristics build and on hand-made ones with abutting, near-coincident
/// and zero-length windows, duplicate plans and plans for applications
/// that are never pending, at window edges mapped far into the run.
#[test]
fn timetable_table_grants_what_a_per_application_lookup_grants() {
    timetable_cases();
    assert!(
        TIMETABLE_GRANTED.load(Ordering::Relaxed) > 0,
        "no probe granted"
    );
    assert!(
        TIMETABLE_SQUEEZED.load(Ordering::Relaxed) > 0,
        "no probe squeezed the plan"
    );
}

// ---------------------------------------------------------------------
// The `control:pi` controller.
// ---------------------------------------------------------------------

/// Pending indices by ascending dilation ratio (`f64::total_cmp`), ties
/// by `AppId`: the most-behind-first order.
fn most_behind_first(pending: &[AppState]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by(|&x, &y| {
        let (x, y) = (&pending[x], &pending[y]);
        x.dilation_ratio
            .total_cmp(&y.dilation_ratio)
            .then_with(|| x.id.cmp(&y.id))
    });
    order
}

/// The `control:pi` law over the public controller parts: token buckets
/// in a map keyed by `AppId`, a full sort for the order, one
/// [`greedy_allocate`] per pass on capped copies of the pending set,
/// and the two passes merged into a fresh list.
struct ReferenceController {
    pi: PiController,
    window: Time,
    smoothed: Option<f64>,
    last_obs: Option<Time>,
    was_congested: bool,
    throttle: f64,
    buckets: BTreeMap<AppId, TokenBucket>,
}

impl ReferenceController {
    fn new(kp: f64, ki: f64, setpoint: f64, window_secs: f64) -> Self {
        Self {
            pi: PiController::new(kp, ki, setpoint),
            window: Time::secs(window_secs),
            smoothed: None,
            last_obs: None,
            was_congested: false,
            throttle: 1.0,
            buckets: BTreeMap::new(),
        }
    }

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

    fn merge(a: Allocation, b: Allocation) -> Allocation {
        if b.grants.is_empty() {
            return a;
        }
        let mut grants = Vec::with_capacity(a.grants.len() + b.grants.len());
        let (mut i, mut j) = (0, 0);
        while i < a.grants.len() || j < b.grants.len() {
            match (a.grants.get(i), b.grants.get(j)) {
                (Some(&(ia, ba)), Some(&(ib, bb))) => {
                    if ia == ib {
                        grants.push((ia, ba + bb));
                        i += 1;
                        j += 1;
                    } else if ia < ib {
                        grants.push((ia, ba));
                        i += 1;
                    } else {
                        grants.push((ib, bb));
                        j += 1;
                    }
                }
                (Some(&g), None) => {
                    grants.push(g);
                    i += 1;
                }
                (None, Some(&g)) => {
                    grants.push(g);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        Allocation { grants }
    }

    /// The decision, and whether the spill pass re-offered a leftover.
    fn allocate(&mut self, ctx: &SchedContext<'_>) -> (Allocation, bool) {
        if ctx.pending.is_empty() {
            return (Allocation::empty(), false);
        }
        let order = most_behind_first(ctx.pending);
        let signal = ctx
            .signal
            .unwrap_or_else(|| CongestionSignal::estimate(ctx));
        let dt_since = self
            .last_obs
            .map_or(0.0, |t| (ctx.now - t).as_secs().max(0.0));
        self.last_obs = Some(ctx.now);

        let n = ctx.pending.len();
        let refill = ctx.total_bw * (self.pi.setpoint / n as f64);
        self.buckets
            .retain(|id, _| ctx.pending.binary_search_by_key(id, |a| a.id).is_ok());
        for app in ctx.pending {
            self.buckets
                .entry(app.id)
                .or_insert_with(|| TokenBucket::full(refill, self.window))
                .advance(refill, self.window, dt_since);
        }

        if !signal.is_congested() {
            self.was_congested = false;
            self.pi.reset();
            self.smoothed = None;
            self.throttle = 1.0;
            let alloc = greedy_allocate(ctx, &order);
            for app in ctx.pending {
                if let Some(b) = self.buckets.get_mut(&app.id) {
                    b.note_grant(alloc.granted(app.id));
                }
            }
            return (alloc, false);
        }

        let pi_dt = if self.was_congested { dt_since } else { 0.0 };
        self.was_congested = true;
        let c = self.observe(signal.utilization, pi_dt);

        let head = &ctx.pending[order[0]];
        let budget = (ctx.total_bw * c).max(head.max_bw).min(ctx.total_bw);

        let capped: Vec<AppState> = ctx
            .pending
            .iter()
            .enumerate()
            .map(|(k, app)| {
                let max_bw = if order[0] == k {
                    app.max_bw
                } else {
                    let allowance = self.buckets[&app.id].admissible(refill, self.window);
                    app.max_bw.min(allowance)
                };
                AppState { max_bw, ..*app }
            })
            .collect();
        let first = greedy_allocate(
            &SchedContext {
                total_bw: budget,
                pending: &capped,
                ..*ctx
            },
            &order,
        );

        let leftover = (budget - first.total()).snap_zero();
        let spilled = leftover.get() > 0.0;
        let alloc = if spilled {
            let spill_caps: Vec<AppState> = ctx
                .pending
                .iter()
                .map(|app| AppState {
                    max_bw: (app.max_bw - first.granted(app.id)).max(Bw::ZERO),
                    ..*app
                })
                .collect();
            let spill = greedy_allocate(
                &SchedContext {
                    total_bw: leftover,
                    pending: &spill_caps,
                    ..*ctx
                },
                &order,
            );
            Self::merge(first, spill)
        } else {
            first
        };
        for app in ctx.pending {
            if let Some(b) = self.buckets.get_mut(&app.id) {
                b.note_grant(alloc.granted(app.id));
            }
        }
        (alloc, spilled)
    }
}

/// Decisions under a throttle below 1, and decisions whose spill pass
/// ran, over all generated sequences.
static THROTTLED: AtomicUsize = AtomicUsize::new(0);
static SPILLED: AtomicUsize = AtomicUsize::new(0);

/// One event of a controller sequence: `(noise seed, clock step kind,
/// signal kind)`. Step kind 0 keeps the clock, 1 moves it by a
/// microsecond, 2–6 by up to a minute, 7 by ten minutes. Signal kind 0
/// hands no signal, 1 an uncongested one, 2 congestion at full delivery,
/// 3–5 congestion with delivery below the setpoint.
fn arb_control_event() -> impl Strategy<Value = (u64, u32, u32)> {
    (any::<u64>(), 0u32..8, 0u32..6)
}

proptest! {
    /// The cases of [`control_pi_matches_the_reference_controller_in_lockstep`].
    fn control_cases(
        gains in (any::<bool>(), 0.0f64..4.0, 0.0f64..1.0, 0.05f64..1.0, 1.0f64..600.0),
        events in prop::collection::vec(arb_control_event(), 80),
    ) {
        let (defaults, kp, ki, set, win) = gains;
        let (kp, ki, set, win) = if defaults {
            (
                ControlPolicy::DEFAULT_KP,
                ControlPolicy::DEFAULT_KI,
                ControlPolicy::DEFAULT_SETPOINT,
                ControlPolicy::DEFAULT_WINDOW_SECS,
            )
        } else {
            (kp, ki, set, win)
        };
        let mut policy = ControlPolicy::new(kp, ki, set, win);
        let mut reference = ReferenceController::new(kp, ki, set, win);
        let mut scratch = AllocScratch::new();
        const RATIOS: [f64; 6] = [0.0, 0.25, 0.5, 0.5, 1.0, 1.0];
        let mut member = [false; 16];
        let mut now = 0.0;
        for (step, &(seed, clock, signal_kind)) in events.iter().enumerate() {
            let mut draws = Draws::new(seed);
            // Applications leave and rejoin the pending set.
            for m in &mut member {
                if draws.chance(0.2) {
                    *m = !*m;
                }
            }
            now += match clock {
                0 => 0.0,
                1 => 1e-6,
                7 => 600.0,
                _ => draws.next() * 60.0,
            };
            let pending: Vec<AppState> = (0..member.len())
                .filter(|&id| member[id])
                .map(|id| AppState {
                    id: AppId(id),
                    procs: 64,
                    dilation_ratio: if draws.chance(0.5) {
                        RATIOS[draws.below(RATIOS.len())]
                    } else {
                        draws.next()
                    },
                    syseff_key: 0.0,
                    last_io_end: Time::ZERO,
                    io_requested_at: Time::ZERO,
                    started_io: false,
                    max_bw: Bw::gib_per_sec(0.5 + draws.next() * 40.0),
                })
                .collect();
            let signal = match signal_kind {
                0 => None,
                1 => Some((draws.next() * 0.9, draws.next() * 0.99)),
                2 => Some((1.0, 1.1 + draws.next() * 3.0)),
                _ => Some((draws.next() * set * 0.95, 1.1 + draws.next() * 3.0)),
            }
            .map(|(utilization, contention)| CongestionSignal {
                utilization,
                contention,
                backlog: Bytes::ZERO,
                pending: pending.len(),
            });
            let ctx = SchedContext {
                now: Time::secs(now),
                total_bw: Bw::gib_per_sec(8.0 + draws.next() * 120.0),
                pending: &pending,
                signal,
            };
            policy.order_into(&ctx, &mut scratch);
            prop_assert_eq!(
                scratch.order(),
                &most_behind_first(&pending)[..],
                "order at event {}",
                step
            );
            policy.allocate_into(&ctx, &mut scratch);
            let (expected, spilled) = reference.allocate(&ctx);
            prop_assert_eq!(
                bits(&scratch.alloc.grants),
                bits(&expected.grants),
                "grants at event {}",
                step
            );
            prop_assert_eq!(
                policy.throttle().to_bits(),
                reference.throttle.to_bits(),
                "throttle at event {}",
                step
            );
            if policy.throttle() < 1.0 {
                THROTTLED.fetch_add(1, Ordering::Relaxed);
            }
            if spilled {
                SPILLED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// `control:pi` decides exactly what the reference controller decides,
/// grant for grant and throttle for throttle, while applications leave
/// and rejoin, the clock stands still or jumps, delivery falls below the
/// setpoint (so the throttle closes and the spill pass runs), and the
/// gains are drawn as well as defaulted.
#[test]
fn control_pi_matches_the_reference_controller_in_lockstep() {
    control_cases();
    assert!(
        THROTTLED.load(Ordering::Relaxed) > 0,
        "no decision ran under a throttle below 1"
    );
    assert!(
        SPILLED.load(Ordering::Relaxed) > 0,
        "no decision ran the spill pass"
    );
}

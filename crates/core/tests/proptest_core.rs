//! Property tests for the scheduling core: every policy's allocation
//! always satisfies the §2.1 capacity rules, the Priority wrapper is a
//! stable partition of its inner order, MinMax-γ's rank orders like the
//! §3.1 comparator, a scratch kept across calls never changes an order,
//! the ranked selection grants what the greedy loop over a full sort
//! grants (also where the grant loop crosses the selection's top array),
//! FairShare and `control:pi` decide what comparator-sort oracles
//! decide, the bandwidth profile never overcommits and its early-exit
//! first fit agrees with a full scan, and random 3-Partition instances
//! round-trip.

use iosched_core::baselines::Fcfs;
use iosched_core::heuristics::{MaxSysEff, MinDilation, MinMax, PolicyKind, Priority, RoundRobin};
use iosched_core::periodic::BandwidthProfile;
use iosched_core::policy::{
    greedy_allocate, AllocScratch, Allocation, AppState, OnlinePolicy, SchedContext,
};
use iosched_core::registry::PolicyFactory;
use iosched_core::three_partition::ThreePartition;
use iosched_model::{AppId, Bw, Platform, Time};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

fn arb_app_state(id: usize) -> impl Strategy<Value = AppState> {
    (
        1u64..5_000,
        0.0f64..1.0,
        0.0f64..5_000.0,
        0.0f64..1_000.0,
        0.0f64..1_000.0,
        any::<bool>(),
        0.1f64..64.0,
    )
        .prop_map(
            move |(procs, ratio, key, last, req, started, max_bw)| AppState {
                id: AppId(id),
                procs,
                dilation_ratio: ratio,
                syseff_key: key,
                last_io_end: Time::secs(last),
                io_requested_at: Time::secs(req),
                started_io: started,
                max_bw: Bw::gib_per_sec(max_bw),
            },
        )
}

fn arb_pending() -> impl Strategy<Value = Vec<AppState>> {
    (1usize..20).prop_flat_map(|n| (0..n).map(arb_app_state).collect::<Vec<_>>())
}

/// The oracle a kept-scratch lane is checked against.
#[derive(Clone, Copy, PartialEq)]
enum Oracle {
    /// A ranked policy, which selects only the applications its grant
    /// loop consumes: the shared greedy loop over its full sorted `order`.
    Greedy,
    /// FairShare: [`water_fill`].
    WaterFill,
    /// The PI controller: [`comparator_order`] by dilation ratio, and the
    /// grants of a lockstep instance deciding through `allocate` (a fresh
    /// scratch per call).
    Lockstep,
}

/// Every online policy with an in-place path, and its oracle.
const SCRATCH_ROSTER: [(&str, Oracle); 11] = [
    ("roundrobin", Oracle::Greedy),
    ("priority-roundrobin", Oracle::Greedy),
    ("mindilation", Oracle::Greedy),
    ("priority-mindilation", Oracle::Greedy),
    ("maxsyseff", Oracle::Greedy),
    ("priority-maxsyseff", Oracle::Greedy),
    ("minmax-0.50", Oracle::Greedy),
    ("priority-minmax-0.50", Oracle::Greedy),
    ("fairshare", Oracle::WaterFill),
    ("fcfs", Oracle::Greedy),
    ("control:pi", Oracle::Lockstep),
];

/// Pending indices sorted by `key` under `f64::total_cmp`, ties by
/// `AppId`.
fn comparator_order(pending: &[AppState], key: fn(&AppState) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by(|&x, &y| {
        let (x, y) = (&pending[x], &pending[y]);
        key(x).total_cmp(&key(y)).then_with(|| x.id.cmp(&y.id))
    });
    order
}

/// Max–min water-filling over [`comparator_order`] by card limit, the
/// oracle for FairShare: each application in turn gets
/// `min(max_bw, remaining / left)`.
fn water_fill(ctx: &SchedContext<'_>) -> Allocation {
    let mut remaining = ctx.total_bw;
    let mut left = ctx.pending.len();
    let mut grants = Vec::new();
    for i in comparator_order(ctx.pending, |a| a.max_bw.get()) {
        let fair = remaining / left as f64;
        let bw = ctx.pending[i].max_bw.min(fair);
        if bw.get() > 0.0 {
            grants.push((ctx.pending[i].id, bw));
        }
        remaining = (remaining - bw).max(Bw::ZERO);
        left -= 1;
    }
    grants.sort_by_key(|&(id, _)| id);
    Allocation { grants }
}

/// Picks the ranked selection keeps from its one ranking pass (private
/// to `iosched_core::policy`; mirrored here so the tests can aim at the
/// boundary).
const TOP: usize = 4;

/// Picks the ranked selection makes, counting the [`TOP`] ones, before it
/// sorts the rest (private to `iosched_core::policy`; mirrored here so
/// the tests can check that the sorted tail is exercised).
const SCAN_PICKS: usize = 8;

/// Ranked allocations, over every generated event sequence, that granted
/// more applications than [`SCAN_PICKS`].
static WIDE_GRANTS: AtomicUsize = AtomicUsize::new(0);

/// One event of a pending-set sequence: `(size the pending set moves
/// toward, applications swapped out and in, key change, noise seed,
/// total bandwidth in GiB/s, bandwidth scale)`. Key change 0 reverses
/// every key, 1–4 redraws them, 5–19 lets them drift; 19 also rotates
/// the keys across the ids, which stay ascending (the `SchedContext`
/// contract). Scale 0 multiplies the bandwidth by 16, which leaves the
/// PFS uncongested.
fn arb_event() -> impl Strategy<Value = (usize, usize, u32, u64, f64, u32)> {
    (
        0usize..48,
        0usize..3,
        0u32..20,
        any::<u64>(),
        1.0f64..256.0,
        0u32..4,
    )
}

/// MinMax-γ's preference as §3.1 states it, the oracle for its rank:
/// applications below γ first, most dilated first; the rest by
/// descending β·ρ̃; ties by `AppId`.
fn minmax_prefer(gamma: f64, x: &AppState, y: &AppState) -> Ordering {
    let (bx, by) = (x.dilation_ratio < gamma, y.dilation_ratio < gamma);
    by.cmp(&bx)
        .then_with(|| {
            if bx && by {
                x.dilation_ratio.total_cmp(&y.dilation_ratio)
            } else {
                y.syseff_key.total_cmp(&x.syseff_key)
            }
        })
        .then_with(|| x.id.cmp(&y.id))
}

/// Pending applications whose MinMax keys come from small grids holding
/// both zeros, so ties and `-0.0` keys are common; the slice is rotated
/// out of `AppId` order.
fn arb_tied_pending() -> impl Strategy<Value = Vec<AppState>> {
    const RATIOS: [f64; 6] = [-0.0, 0.0, 0.25, 0.5, 0.5, 1.0];
    const KEYS: [f64; 5] = [-0.0, 0.0, 10.0, 10.0, 500.0];
    prop::collection::vec((0usize..6, 0usize..5, any::<bool>(), 0.5f64..8.0), 1..40).prop_map(
        |draws| {
            let mut pending: Vec<AppState> = draws
                .iter()
                .enumerate()
                .map(|(id, &(r, k, started, max_bw))| AppState {
                    id: AppId(id),
                    procs: 64,
                    dilation_ratio: RATIOS[r],
                    syseff_key: KEYS[k],
                    last_io_end: Time::ZERO,
                    io_requested_at: Time::ZERO,
                    started_io: started,
                    max_bw: Bw::gib_per_sec(max_bw),
                })
                .collect();
            let third = pending.len() / 3;
            pending.rotate_left(third);
            pending
        },
    )
}

/// Uniform `[0, 1)` noise for draw `k` of seed `seed` (splitmix64).
fn unit(seed: u64, k: u64) -> f64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

/// Application `id` with keys drawn from `seed` on coarse grids, so ties
/// are common: a third of the dilation ratios sit at exactly 1.0, and I/O
/// instants fall on 10 s steps.
fn drawn_app(id: usize, seed: u64) -> AppState {
    let u = |k| unit(seed, k);
    AppState {
        id: AppId(id),
        procs: 64 + (id as u64 % 7) * 128,
        dilation_ratio: if u(0) < 0.3 { 1.0 } else { u(1) },
        syseff_key: (u(2) * 50.0).floor() * 10.0,
        last_io_end: Time::secs((u(3) * 30.0).floor() * 10.0),
        io_requested_at: Time::secs((u(4) * 30.0).floor() * 10.0),
        started_io: u(5) < 0.5,
        max_bw: Bw::gib_per_sec(0.5 + (u(6) * 16.0).floor() * 4.0),
    }
}

/// A small move between two events: ratios drift and saturate at 1.0,
/// efficiency keys drift, and now and then an application finishes or
/// starts a transfer.
fn drift(a: &mut AppState, seed: u64, now: Time) {
    let u = |k| unit(seed, k);
    a.dilation_ratio = (a.dilation_ratio + (u(0) - 0.5) * 0.05).clamp(0.0, 1.0);
    a.syseff_key = (a.syseff_key + (u(1) - 0.5) * 20.0).max(0.0);
    if u(2) < 0.1 {
        a.last_io_end = now;
    }
    if u(3) < 0.1 {
        a.io_requested_at = now;
    }
    if u(4) < 0.1 {
        a.started_io = !a.started_io;
    }
}

/// Reverse every key's order (ties stay tied).
fn reverse(a: &mut AppState) {
    a.dilation_ratio = 1.0 - a.dilation_ratio;
    a.syseff_key = 5_000.0 - a.syseff_key;
    a.last_io_end = Time::secs(10_000.0 - a.last_io_end.as_secs());
    a.io_requested_at = Time::secs(10_000.0 - a.io_requested_at.as_secs());
    a.max_bw = Bw::gib_per_sec(70.0 - a.max_bw.as_gib_per_sec());
}

/// `BandwidthProfile::first_fit` without its early exit: the same walk
/// over every segment from the one holding `earliest` to the period end,
/// through the public `segments()` view.
fn naive_first_fit(profile: &BandwidthProfile, earliest: Time, dur: Time, bw: Bw) -> Option<Time> {
    let period = profile.period();
    let earliest = earliest.max(Time::ZERO);
    if dur.is_zero() {
        return earliest.approx_le(period).then(|| earliest.min(period));
    }
    if earliest.approx_ge(period) {
        return None;
    }
    let mut run_start: Option<Time> = None;
    for (start, end, avail) in profile.segments() {
        if end.get() <= earliest.get() {
            continue;
        }
        if avail.approx_ge(bw) {
            let candidate = run_start.get_or_insert(start).max(earliest);
            if (candidate + dur).approx_le(end) {
                return Some(candidate);
            }
        } else {
            run_start = None;
        }
    }
    None
}

proptest! {
    /// Every roster policy produces a valid allocation on any context and
    /// saturates the PFS whenever demand allows (work conservation).
    #[test]
    fn policies_allocate_validly_and_work_conserving(
        pending in arb_pending(),
        total in 1.0f64..256.0,
    ) {
        let ctx = SchedContext {
            now: Time::secs(1_000.0),
            total_bw: Bw::gib_per_sec(total),
            pending: &pending,
            signal: None,
        };
        let demand: f64 = pending.iter().map(|a| a.max_bw.as_gib_per_sec()).sum();
        for kind in PolicyKind::fig6_roster() {
            let mut policy = kind.build();
            let alloc = policy.allocate(&ctx);
            alloc.validate(&ctx).map_err(TestCaseError::fail)?;
            // Work conservation: granted total = min(demand, B).
            let granted = alloc.total().as_gib_per_sec();
            let expected = demand.min(total);
            prop_assert!(
                (granted - expected).abs() <= 1e-6 * expected.max(1.0),
                "{}: granted {granted} vs min(demand, B) = {expected}",
                kind.name()
            );
        }
    }

    /// `order` is always a permutation of the pending indices.
    #[test]
    fn orders_are_permutations(pending in arb_pending()) {
        let ctx = SchedContext {
            now: Time::secs(10.0),
            total_bw: Bw::gib_per_sec(10.0),
            pending: &pending,
            signal: None,
        };
        for kind in PolicyKind::fig6_roster() {
            let mut policy = kind.build();
            let mut order = policy.order(&ctx);
            order.sort_unstable();
            let expected: Vec<usize> = (0..pending.len()).collect();
            prop_assert_eq!(order, expected, "{} broke the permutation", kind.name());
        }
    }

    /// Priority is a stable partition: started apps keep the inner
    /// relative order, and all of them precede all fresh apps.
    #[test]
    fn priority_is_a_stable_partition(pending in arb_pending()) {
        use iosched_core::heuristics::{MinDilation, Priority};
        let ctx = SchedContext {
            now: Time::secs(10.0),
            total_bw: Bw::gib_per_sec(10.0),
            pending: &pending,
            signal: None,
        };
        let inner_order = MinDilation.order(&ctx);
        let prio_order = Priority::new(MinDilation).order(&ctx);
        // Partition point: all started first.
        let first_fresh = prio_order
            .iter()
            .position(|&i| !pending[i].started_io)
            .unwrap_or(prio_order.len());
        prop_assert!(prio_order[first_fresh..].iter().all(|&i| !pending[i].started_io));
        // Stability: relative inner order preserved within each group.
        let rank = |i: usize| inner_order.iter().position(|&x| x == i).unwrap();
        for grp in [&prio_order[..first_fresh], &prio_order[first_fresh..]] {
            for w in grp.windows(2) {
                prop_assert!(rank(w[0]) < rank(w[1]));
            }
        }
    }

    /// MinMax-γ's rank orders exactly like the §3.1 comparator, at both
    /// degenerate thresholds and the paper's γ = 0.5, with tied keys and
    /// `-0.0` keys on both sides of the threshold test; under Priority
    /// the order is the comparator's stably partitioned by `started_io`.
    /// The ranked selection grants what the greedy loop grants over the
    /// comparator's order.
    #[test]
    fn minmax_rank_orders_like_the_comparator(
        pending in arb_tied_pending(),
        total in 1.0f64..64.0,
    ) {
        let ctx = SchedContext {
            now: Time::secs(10.0),
            total_bw: Bw::gib_per_sec(total),
            pending: &pending,
            signal: None,
        };
        for gamma in [0.0, 0.5, 1.0] {
            let mut expected: Vec<usize> = (0..pending.len()).collect();
            expected.sort_by(|&x, &y| minmax_prefer(gamma, &pending[x], &pending[y]));
            prop_assert_eq!(MinMax::new(gamma).order(&ctx), expected.clone(), "minmax-{}", gamma);
            let mut scratch = AllocScratch::new();
            MinMax::new(gamma).allocate_into(&ctx, &mut scratch);
            prop_assert_eq!(&scratch.alloc, &greedy_allocate(&ctx, &expected), "minmax-{}", gamma);

            let (started, fresh): (Vec<usize>, Vec<usize>) =
                expected.iter().partition(|&&i| pending[i].started_io);
            let expected = [started, fresh].concat();
            let mut prio = Priority::new(MinMax::new(gamma));
            prop_assert_eq!(prio.order(&ctx), expected.clone(), "priority-minmax-{}", gamma);
            prio.allocate_into(&ctx, &mut scratch);
            prop_assert_eq!(
                &scratch.alloc,
                &greedy_allocate(&ctx, &expected),
                "priority-minmax-{}",
                gamma
            );
        }
    }
}

/// A pending set for the selection oracle: `n` applications whose keys
/// come from tie-heavy grids holding both zeros, under ids that are a
/// permutation of `0..n`. The selection must not lean on the pending
/// order, so the slice is shuffled out of `AppId` order: a selection that
/// broke rank ties by position would then pick differently.
fn arb_selection_pending() -> impl Strategy<Value = Vec<AppState>> {
    // Sizes up to 20, with the top array's edges and the scan's end
    // (`TOP − 1`, `TOP`, `TOP + 1`, 8 and 9) drawn more often.
    (0usize..26)
        .prop_map(|v| match v {
            21 => TOP - 1,
            22 => TOP,
            23 => TOP + 1,
            24 => 8,
            25 => 9,
            n => n,
        })
        .prop_flat_map(|n| {
            (
                prop::collection::vec(
                    (0usize..6, 0usize..5, 0usize..4, any::<bool>(), 0usize..4),
                    n..n + 1,
                ),
                any::<u64>(),
            )
        })
        .prop_map(|(draws, seed)| {
            const RATIOS: [f64; 6] = [-0.0, 0.0, 0.25, 0.5, 0.5, 1.0];
            const KEYS: [f64; 5] = [-0.0, 0.0, 10.0, 10.0, 500.0];
            const INSTANTS: [f64; 4] = [0.0, 10.0, 10.0, 20.0];
            const CARDS: [f64; 4] = [1.0, 2.0, 2.0, 4.0];
            let mut ids: Vec<usize> = (0..draws.len()).collect();
            ids.sort_by(|&x, &y| unit(seed, x as u64).total_cmp(&unit(seed, y as u64)));
            draws
                .iter()
                .zip(ids)
                .map(|(&(r, k, t, started, c), id)| AppState {
                    id: AppId(id),
                    procs: 64,
                    dilation_ratio: RATIOS[r],
                    syseff_key: KEYS[k],
                    last_io_end: Time::secs(INSTANTS[t]),
                    io_requested_at: Time::secs(INSTANTS[(t + k) % 4]),
                    started_io: started,
                    max_bw: Bw::gib_per_sec(CARDS[c]),
                })
                .collect()
        })
}

proptest! {
    /// The ranked selection at its top-array boundary: for pending sets
    /// around `TOP` in size and a PFS that saturates inside the first,
    /// the `TOP − 1`-th, the `TOP`-th or the `TOP + 1`-th pick, or never,
    /// every ranked policy grants, on a scratch kept across the cases,
    /// exactly what the greedy loop grants over its full `order()`, bit
    /// for bit.
    #[test]
    fn selection_matches_the_full_order_across_its_top_array(
        pending in arb_selection_pending(),
    ) {
        let mut policies: Vec<Box<dyn OnlinePolicy>> = vec![
            Box::new(MinDilation),
            Box::new(Priority::new(MinDilation)),
            Box::new(MaxSysEff),
            Box::new(Priority::new(MaxSysEff)),
            Box::new(MinMax::new(0.5)),
            Box::new(Priority::new(MinMax::new(0.5))),
            Box::new(RoundRobin),
            Box::new(Fcfs),
        ];
        let mut scratch = AllocScratch::new();
        let bits = |grants: &[(AppId, Bw)]| -> Vec<(AppId, u64)> {
            grants.iter().map(|&(id, bw)| (id, bw.get().to_bits())).collect()
        };
        for policy in &mut policies {
            let probe = SchedContext {
                now: Time::secs(100.0),
                total_bw: Bw::gib_per_sec(1.0),
                pending: &pending,
                signal: None,
            };
            let order = policy.order(&probe);
            let cards: Vec<f64> = order.iter().map(|&i| pending[i].max_bw.get()).collect();
            // Saturate half-way through pick `k` (from 1), or never.
            let mut totals: Vec<f64> = [1, TOP - 1, TOP, TOP + 1]
                .into_iter()
                .filter(|&k| k <= cards.len())
                .map(|k| cards[..k - 1].iter().sum::<f64>() + cards[k - 1] / 2.0)
                .collect();
            totals.push(cards.iter().sum::<f64>() * 2.0 + 1.0);
            for total in totals {
                let ctx = SchedContext {
                    total_bw: Bw::new(total),
                    ..probe
                };
                policy.allocate_into(&ctx, &mut scratch);
                prop_assert_eq!(
                    bits(&scratch.alloc.grants),
                    bits(&greedy_allocate(&ctx, &order).grants),
                    "{} over {} pending at B = {}",
                    policy.name(),
                    pending.len(),
                    total
                );
            }
        }
    }
}

/// One scratch kept for a whole sequence of events never changes an
/// order, and the in-place allocation matches an independent oracle bit
/// for bit (see [`Oracle`]). Between events applications leave and
/// arrive, the pending size moves between 0 and 47, keys drift, get
/// redrawn or reverse, the PFS is now and then uncongested (so more than
/// [`SCAN_PICKS`] applications are granted), and now and then the keys
/// rotate across the ids. Each lane drives its own policy instances, so
/// the stateful `control:*` policy stays in lockstep.
#[test]
fn a_scratch_kept_across_calls_never_changes_an_order() {
    scratch_sequences();
    assert!(
        WIDE_GRANTS.load(AtomicOrdering::Relaxed) > 0,
        "no generated event granted more than {SCAN_PICKS} applications"
    );
}

proptest! {
    /// The cases of [`a_scratch_kept_across_calls_never_changes_an_order`].
    fn scratch_sequences(
        events in prop::collection::vec(arb_event(), 30),
    ) {
        let platform = Platform::intrepid();
        let mut lanes = Vec::new();
        for (name, oracle) in SCRATCH_ROSTER {
            let spec = PolicyFactory::parse(name).map_err(TestCaseError::fail)?;
            let reference = spec.build_online(&platform).map_err(TestCaseError::fail)?;
            let in_place = spec.build_online(&platform).map_err(TestCaseError::fail)?;
            lanes.push((name, oracle, reference, in_place, AllocScratch::new()));
        }
        let mut apps: Vec<AppState> = Vec::new();
        let mut next_id = 0;
        for (step, &(target, swap, change, seed, total, scale)) in events.iter().enumerate() {
            let now = Time::secs(10.0 * (step + 1) as f64);
            let leave = swap + apps.len().saturating_sub(target).min(8);
            for k in 0..leave.min(apps.len()) {
                let at = (unit(seed, 100 + k as u64) * apps.len() as f64) as usize;
                apps.remove(at);
            }
            let arrive = swap + target.saturating_sub(apps.len()).min(8);
            for _ in 0..arrive {
                apps.push(drawn_app(next_id, seed ^ next_id as u64));
                next_id += 1;
            }
            for (k, a) in apps.iter_mut().enumerate() {
                match change {
                    0 => reverse(a),
                    1..=4 => *a = drawn_app(a.id.0, seed.wrapping_add(k as u64)),
                    _ => drift(a, seed.wrapping_add(k as u64), now),
                }
            }
            let mut pending = apps.clone();
            if change == 19 {
                // The keys move to other applications; every id keeps
                // its place, so the slice stays in `AppId` order.
                let third = pending.len() / 3;
                pending.rotate_left(third);
                for (a, b) in pending.iter_mut().zip(&apps) {
                    a.id = b.id;
                }
            }
            let total = if scale == 0 { total * 16.0 } else { total };
            let ctx = SchedContext {
                now,
                total_bw: Bw::gib_per_sec(total),
                pending: &pending,
                signal: None,
            };
            for (name, oracle, reference, in_place, scratch) in &mut lanes {
                in_place.order_into(&ctx, scratch);
                let order = if *oracle == Oracle::Lockstep {
                    comparator_order(&pending, |a| a.dilation_ratio)
                } else {
                    reference.order(&ctx)
                };
                prop_assert_eq!(scratch.order(), &order[..], "{} order at event {}", name, step);
                in_place.allocate_into(&ctx, scratch);
                let bits = |grants: &[(AppId, Bw)]| -> Vec<(AppId, u64)> {
                    grants.iter().map(|&(id, bw)| (id, bw.get().to_bits())).collect()
                };
                let alloc = match oracle {
                    Oracle::Greedy => {
                        if scratch.alloc.grants.len() > SCAN_PICKS {
                            WIDE_GRANTS.fetch_add(1, AtomicOrdering::Relaxed);
                        }
                        greedy_allocate(&ctx, &order)
                    }
                    Oracle::WaterFill => water_fill(&ctx),
                    Oracle::Lockstep => reference.allocate(&ctx),
                };
                prop_assert_eq!(
                    bits(&scratch.alloc.grants),
                    bits(&alloc.grants),
                    "{} grants at event {}",
                    name,
                    step
                );
            }
        }
    }

    /// The bandwidth profile never admits an overcommitting reservation
    /// and `first_fit` results are always actually feasible.
    #[test]
    fn profile_first_fit_is_sound(
        reservations in prop::collection::vec(
            (0.0f64..90.0, 0.1f64..30.0, 0.1f64..6.0), 0..12),
        query in (0.0f64..100.0, 0.1f64..40.0, 0.1f64..10.0),
    ) {
        let mut profile = BandwidthProfile::new(Time::secs(100.0), Bw::gib_per_sec(10.0));
        for (start, dur, bw) in reservations {
            let end = (start + dur).min(100.0);
            if end > start {
                // Reservation may legitimately fail; never panic.
                let _ = profile.reserve(
                    Time::secs(start),
                    Time::secs(end),
                    Bw::gib_per_sec(bw),
                );
            }
        }
        let (from, dur, bw) = query;
        if let Some(s) = profile.first_fit(
            Time::secs(from),
            Time::secs(dur),
            Bw::gib_per_sec(bw),
        ) {
            prop_assert!(s.approx_ge(Time::secs(from)));
            prop_assert!((s + Time::secs(dur)).approx_le(Time::secs(100.0)));
            let min = profile.min_available(s, s + Time::secs(dur));
            prop_assert!(
                min.approx_ge(Bw::gib_per_sec(bw)),
                "window at {s} has only {min}"
            );
        }
    }

    /// The early exit in `first_fit` is exact: on profiles built by
    /// random reservations, it returns the same bits as a scan of every
    /// segment, including zero durations and starts at or past the
    /// period.
    #[test]
    fn profile_first_fit_matches_a_full_scan(
        reservations in prop::collection::vec(
            (0.0f64..100.0, 0.1f64..40.0, 0.1f64..10.0), 0..40),
        queries in prop::collection::vec(
            (0.0f64..130.0, 0u32..4, 0.0f64..60.0, 0.1f64..10.0), 1..16),
    ) {
        let period = Time::secs(100.0);
        let mut profile = BandwidthProfile::new(period, Bw::gib_per_sec(10.0));
        for (start, dur, bw) in reservations {
            let end = (start + dur).min(100.0);
            if end > start {
                let _ = profile.reserve(Time::secs(start), Time::secs(end), Bw::gib_per_sec(bw));
            }
        }
        for (from, kind, dur, bw) in queries {
            // Kind 0: a zero duration; kind 1: a start exactly at the
            // period; otherwise a random start and duration.
            let dur = if kind == 0 { Time::ZERO } else { Time::secs(dur) };
            let from = if kind == 1 { period } else { Time::secs(from) };
            let bw = Bw::gib_per_sec(bw);
            let fast = profile.first_fit(from, dur, bw).map(|t| t.as_secs().to_bits());
            let naive = naive_first_fit(&profile, from, dur, bw).map(|t| t.as_secs().to_bits());
            prop_assert_eq!(fast, naive, "first_fit({from}, {dur}, {bw})");
        }
    }

    /// Random feasible 3-Partition instances (built from a known
    /// partition) are solved by brute force, and the proof schedule
    /// round-trips to a valid certificate.
    #[test]
    fn three_partition_roundtrip(
        triples in prop::collection::vec((1u64..30, 1u64..30), 2..5),
    ) {
        // Build n triplets with a common sum: (a, b, B−a−b) for B chosen
        // larger than every a+b.
        let target = triples.iter().map(|&(a, b)| a + b).max().unwrap() + 5;
        let mut items = Vec::new();
        for &(a, b) in &triples {
            items.extend([a, b, target - a - b]);
        }
        let instance = ThreePartition::new(target, items).unwrap();
        let solution = instance.brute_force().expect("constructed feasible");
        let schedule = instance.schedule_from_partition(&solution);
        prop_assert_eq!(schedule.verify().unwrap(), 1.0);
        let recovered = schedule.extract_partition().expect("valid schedule");
        for t in &recovered {
            let sum: u64 = t.iter().map(|&k| instance.items()[k]).sum();
            prop_assert_eq!(sum, instance.target());
        }
    }

    /// Full-roster name discipline under random knobs: every registry
    /// member — the complete roster plus randomly tuned `minmax`,
    /// `periodic:*` and `control:*` members — roundtrips
    /// parse ↔ name ↔ serde exactly.
    #[test]
    fn registry_names_roundtrip_under_random_knobs(
        gamma in 0.0f64..1.0,
        kp in 0.0f64..4.0,
        ki in 0.0f64..1.0,
        set in 0.05f64..1.0,
        win in 1.0f64..600.0,
        eps in 0.01f64..0.8,
        tmax in 1.0f64..8.0,
    ) {
        use iosched_core::heuristics::BasePolicy;
        use iosched_core::periodic::InsertionHeuristic;
        use iosched_core::registry::{ControlFactory, PeriodicFactory, PolicyFactory};

        let mut roster = PolicyFactory::complete_roster();
        roster.push(PolicyFactory::Kind(PolicyKind::plain(BasePolicy::MinMax(gamma))));
        roster.push(PolicyFactory::Periodic(
            PeriodicFactory::new(InsertionHeuristic::Congestion)
                .with_epsilon(eps)
                .with_max_factor(tmax),
        ));
        roster.push(PolicyFactory::Control(
            ControlFactory::default()
                .with_kp(kp)
                .with_ki(ki)
                .with_setpoint(set)
                .with_window(win),
        ));
        for spec in roster {
            // parse ↔ serde_name (the canonical machine-readable form).
            let name = spec.serde_name();
            let parsed = PolicyFactory::parse(&name).map_err(TestCaseError::fail)?;
            prop_assert_eq!(parsed, spec, "parse(serde_name()) diverged for {}", name);
            // serde is the name string, and it roundtrips bit-exactly.
            let json = serde_json::to_string(&spec).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&json, &format!("\"{}\"", name));
            let back: PolicyFactory = serde_json::from_str(&json)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(back, spec, "serde roundtrip diverged for {}", json);
            // Whatever parses also validates (the grammar and the
            // builder agree on legal knobs).
            prop_assert!(spec.validate().is_ok(), "{} failed validation", name);
        }
    }

    /// Malformed control gains never parse: the grammar rejects any
    /// negative gain, out-of-range setpoint or non-positive window with
    /// an actionable error (never a panic).
    #[test]
    fn malformed_control_gains_are_rejected(
        kp in -10.0f64..-0.001,
        set in 1.001f64..100.0,
        win in -100.0f64..0.0,
    ) {
        use iosched_core::registry::PolicyFactory;
        for bad in [
            format!("control:pi:kp={kp}"),
            format!("control:pi:set={set}"),
            format!("control:pi:set={}", -set),
            format!("control:pi:win={win}"),
            "control:pi:set=0".to_string(),
            "control:pi:win=0".to_string(),
        ] {
            let err = PolicyFactory::parse(&bad);
            prop_assert!(err.is_err(), "{} should not parse", bad);
            prop_assert!(!err.unwrap_err().is_empty());
        }
    }
}

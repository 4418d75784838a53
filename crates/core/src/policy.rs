//! The online scheduling abstraction of §3.1.
//!
//! The global scheduler "monitors the stream of I/O calls and decides on the
//! fly which applications are allowed to perform I/O". An *event* is the
//! start or end of an I/O transfer (plus, in our simulator, releases and
//! burst-buffer level crossings). At each event the scheduler inspects the
//! current state — application efficiencies and the amount of I/O performed
//! — and, following its strategy, *favors* a subset of applications:
//! a favored application receives bandwidth `min(β·b, bw_avail)` where
//! `bw_avail` is what remains of `B` when its turn comes; the others are
//! stalled until the next event.
//!
//! Policies are pure ordering strategies over [`AppState`] snapshots plus
//! the shared greedy grant loop [`greedy_allocate`]; this keeps every
//! heuristic of the paper a ~30-line module and guarantees they all enforce
//! the two §2.1 capacity rules identically. Each policy decides in one
//! place, [`OnlinePolicy::allocate_into`].
//!
//! The §3.1 heuristics, the FCFS baseline and the `control:*` family
//! state their preference as a [`Ranked`] key. At an event the grant loop
//! usually stops after two or three applications, so a `Selection` picks
//! the favored applications one by one instead of ranking every pending
//! application, and costs `O(pending × grants)` rather than a full sort;
//! `control:pi`'s capped and spill passes read one selection. A full order
//! (FairShare's water-filling, any policy's [`OnlinePolicy::order`]) is
//! one sort of rank keys, `order_into_by_rank`.

use iosched_model::{AppId, Bw, Time};
use serde::{Deserialize, Serialize};

/// Scheduler-visible snapshot of one application that currently wants to
/// perform I/O (it is either stalled waiting for a grant or mid-transfer).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AppState {
    /// Which application.
    pub id: AppId,
    /// `β(k)`: dedicated processors.
    pub procs: u64,
    /// Current dilation ratio `ρ̃(k)(t)/ρ(k)(t) ∈ [0, 1]` (1 = on schedule).
    pub dilation_ratio: f64,
    /// Current MaxSysEff key `β(k)·ρ̃(k)(t)`.
    pub syseff_key: f64,
    /// When this application last completed an instance's I/O transfer
    /// (its release time if it never has). RoundRobin's FCFS key.
    pub last_io_end: Time,
    /// When the current I/O request was issued (= when the compute chunk
    /// of the current instance ended). Strict-FCFS baselines order by this.
    pub io_requested_at: Time,
    /// True when the current transfer has already started (some bytes of
    /// the current instance were transferred). The Priority wrapper serves
    /// these applications first to preserve disk locality.
    pub started_io: bool,
    /// Maximum bandwidth this application can absorb: `min(β·b, B)`.
    pub max_bw: Bw,
}

/// Everything a policy may look at when re-allocating bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct SchedContext<'a> {
    /// Current time.
    pub now: Time,
    /// Total PFS bandwidth `B`.
    pub total_bw: Bw,
    /// Applications that want to perform I/O right now, in `AppId` order.
    pub pending: &'a [AppState],
    /// Congestion telemetry from the driving engine's tap, when one is
    /// attached (`None` on the initial allocation or under drivers
    /// without telemetry). The open-loop roster ignores it; the
    /// [`crate::control`] family closes its feedback loop on it.
    pub signal: Option<crate::control::CongestionSignal>,
}

/// Bandwidth grants decided at one event: application-level bandwidths
/// `β(k)·γ(k)`. Applications absent from `grants` are stalled (`γ = 0`).
///
/// **Invariant:** `grants` is sorted by ascending [`AppId`] with at most
/// one entry per application. [`greedy_allocate`] and
/// `allocate_into_by_rank` establish it, the in-tree policies that
/// build grants directly emit pending order (which is `AppId` order by
/// the [`StateBuffer`] contract), and [`Allocation::validate`] enforces
/// it — so lookups can binary-search and drivers can merge-walk grants
/// against their own `AppId`-ordered lists instead of scanning per
/// application.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// `(app, application-aggregate bandwidth)` pairs, sorted by `AppId`;
    /// at most one per app.
    pub grants: Vec<(AppId, Bw)>,
}

impl Allocation {
    /// An allocation granting nothing.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Granted bandwidth for `id` (zero if stalled). Binary search over
    /// the `AppId`-sorted grants.
    #[must_use]
    pub fn granted(&self, id: AppId) -> Bw {
        self.grants
            .binary_search_by_key(&id, |&(a, _)| a)
            .map_or(Bw::ZERO, |i| self.grants[i].1)
    }

    /// Total granted bandwidth.
    #[must_use]
    pub fn total(&self) -> Bw {
        self.grants.iter().map(|(_, bw)| *bw).sum()
    }

    /// Check the §2.1 capacity rules against a context: per-application
    /// `grant ≤ min(β·b, B)` and aggregate `Σ grants ≤ B`, plus the
    /// sortedness invariant documented on [`Allocation`]. Returns the
    /// first violation as a human-readable string.
    ///
    /// `ctx.pending` is in `AppId` order (the [`StateBuffer`] contract),
    /// so one merge walk over `grants` and `pending` checks ordering,
    /// duplicates and membership in `O(grants + pending)` instead of the
    /// per-grant linear scans a naive check would need.
    pub fn validate(&self, ctx: &SchedContext<'_>) -> Result<(), String> {
        let mut prev: Option<AppId> = None;
        let mut pi = 0usize;
        for &(id, bw) in &self.grants {
            match prev {
                Some(p) if p == id => return Err(format!("duplicate grant for {id}")),
                Some(p) if p > id => {
                    return Err(format!(
                        "grants not sorted by AppId ({p} precedes {id}); policies must \
                         emit AppId-ordered grants"
                    ));
                }
                _ => {}
            }
            prev = Some(id);
            while pi < ctx.pending.len() && ctx.pending[pi].id < id {
                pi += 1;
            }
            let Some(app) = ctx.pending.get(pi).filter(|a| a.id == id) else {
                return Err(format!("grant for non-pending {id}"));
            };
            if !bw.is_finite() || bw.get() < 0.0 {
                return Err(format!("non-finite or negative grant for {id}: {bw}"));
            }
            if bw.approx_gt(app.max_bw) {
                return Err(format!("{id} granted {bw} above its cap {}", app.max_bw));
            }
        }
        if self.total().approx_gt(ctx.total_bw) {
            return Err(format!(
                "aggregate grant {} exceeds B = {}",
                self.total(),
                ctx.total_bw
            ));
        }
        Ok(())
    }
}

/// Reusable arena for the [`AppState`] snapshots a scheduler consumes.
///
/// Every driver of an [`OnlinePolicy`] — the fluid simulator, the IOR
/// harness's scheduler thread — rebuilds the pending-application snapshot
/// at each event. Allocating a fresh `Vec<AppState>` per event dominates
/// the steady-state allocation profile of a simulation, so drivers keep
/// one `StateBuffer` alive and refill it in place: [`clear`] + [`push`]
/// reuse the existing capacity, and [`context`] borrows the snapshot as
/// the [`SchedContext`] handed to the policy.
///
/// The driver is responsible for pushing snapshots in `AppId` order
/// (policies tie-break on `AppId` and the shared grant loop assumes a
/// deterministic pending order).
///
/// [`clear`]: StateBuffer::clear
/// [`push`]: StateBuffer::push
/// [`context`]: StateBuffer::context
#[derive(Debug, Default)]
pub struct StateBuffer {
    states: Vec<AppState>,
}

impl StateBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the previous snapshot, keeping the allocation.
    pub fn clear(&mut self) {
        self.states.clear();
    }

    /// Append one application snapshot.
    pub fn push(&mut self, state: AppState) {
        self.states.push(state);
    }

    /// The current snapshot.
    #[must_use]
    pub fn states(&self) -> &[AppState] {
        &self.states
    }

    /// Number of pending applications in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no application is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Borrow the snapshot as the context a policy allocates against.
    #[must_use]
    pub fn context(&self, now: Time, total_bw: Bw) -> SchedContext<'_> {
        self.context_with_signal(now, total_bw, None)
    }

    /// Borrow the snapshot as a context carrying a congestion signal
    /// (drivers with a telemetry tap — the fluid engine — hand the last
    /// observation to the policy through this).
    #[must_use]
    pub fn context_with_signal(
        &self,
        now: Time,
        total_bw: Bw,
        signal: Option<crate::control::CongestionSignal>,
    ) -> SchedContext<'_> {
        SchedContext {
            now,
            total_bw,
            pending: &self.states,
            signal,
        }
    }
}

/// Reusable workspace of [`OnlinePolicy::allocate_into`]: the output
/// [`Allocation`] plus the rank/order scratch the selection and sorting
/// helpers fill.
///
/// Rebuilding a preference order allocates a `Vec<usize>` per event and
/// recomputes every ordering key once per *comparison*; at millions of
/// events this dominates the policy-side profile. Drivers keep one
/// `AllocScratch` alive across events (next to their [`StateBuffer`]), so
/// the whole decision runs without touching the heap: keys are computed
/// once per application into `ranked`, a full permutation (when one is
/// asked for) lands in `order`, and the grants in `alloc.grants`, all
/// retaining their capacity. The scratch carries no decision state from
/// one call to the next, so one scratch per run is enough.
#[derive(Debug, Default)]
pub struct AllocScratch {
    /// The allocation decided by the last [`OnlinePolicy::allocate_into`].
    pub alloc: Allocation,
    /// `(rank, id, pending-index)` workspace of the [`Ranked`] helpers:
    /// the candidates of a [`Selection`], or the entries
    /// [`order_into_by_rank`] sorts.
    pub(crate) ranked: Vec<(u128, AppId, usize)>,
    /// Preference order: indices into the pending slice, most-favored
    /// first.
    pub(crate) order: Vec<usize>,
}

impl AllocScratch {
    /// A fresh, empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The preference order filled by the last
    /// [`OnlinePolicy::order_into`] call.
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

/// An online scheduling strategy (§3.1).
///
/// A strategy is fundamentally a *preference order* over the pending
/// applications; the grant loop ([`greedy_allocate`]) is shared by all of
/// them, which guarantees that every heuristic enforces the §2.1 capacity
/// rules identically. Implementations must be deterministic functions of
/// the context (ties broken by `AppId`), so simulations are reproducible.
///
/// A policy states its decision once, in
/// [`allocate_into`](OnlinePolicy::allocate_into), the in-place entry
/// point the engine and the IOR scheduler run.
/// [`order`](OnlinePolicy::order) and [`allocate`](OnlinePolicy::allocate)
/// are allocating conveniences over the in-place methods.
pub trait OnlinePolicy: Send {
    /// Human-readable name used in reports ("maxsyseff", "priority-mindilation", …).
    fn name(&self) -> String;

    /// Decide the bandwidth grants for `ctx.pending` into
    /// `scratch.alloc`, reusing the scratch buffers across events.
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch);

    /// Fill `scratch.order` with the preference order: indices into
    /// `ctx.pending`, most-favored first, a permutation of
    /// `0..ctx.pending.len()`. The default is pending order, for
    /// policies whose grants follow no preference (FairShare serves
    /// everyone, a timetable follows its plan).
    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        scratch.order.clear();
        scratch.order.extend(0..ctx.pending.len());
    }

    /// The preference order of [`OnlinePolicy::order_into`], on a fresh
    /// scratch.
    fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
        let mut scratch = AllocScratch::new();
        self.order_into(ctx, &mut scratch);
        scratch.order
    }

    /// The grants of [`OnlinePolicy::allocate_into`], on a fresh scratch.
    fn allocate(&mut self, ctx: &SchedContext<'_>) -> Allocation {
        let mut scratch = AllocScratch::new();
        self.allocate_into(ctx, &mut scratch);
        scratch.alloc
    }

    /// Next instant (strictly after `now`) at which this policy wants to
    /// re-allocate even though no application event occurred. Event-driven
    /// policies (all of §3.1) never do — the default `None`. Timetable
    /// policies (periodic schedules replayed in the simulator) use this to
    /// wake the engine at reservation boundaries; a policy returning
    /// wakeups is also permitted to stall every pending application, since
    /// it is guaranteed to be consulted again.
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        let _ = now;
        None
    }
}

impl<P: OnlinePolicy + ?Sized> OnlinePolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        (**self).allocate_into(ctx, scratch);
    }
    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        (**self).order_into(ctx, scratch);
    }
    fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
        (**self).order(ctx)
    }
    fn allocate(&mut self, ctx: &SchedContext<'_>) -> Allocation {
        (**self).allocate(ctx)
    }
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        (**self).next_wakeup(now)
    }
}

/// The shared grant loop: walk `order` (application indices into
/// `ctx.pending`, most-favored first) and give each application
/// `min(max_bw, bw_avail)` until the PFS is saturated.
///
/// This is exactly the paper's "favoring application App(k) means that
/// App(k) is executed as fast as possible, with bandwidth
/// `min(b·β(k), bw_avail)`". The grants are returned in `AppId` order
/// (the [`Allocation`] invariant), not preference order — the preference
/// only decides *how much* each application gets.
#[must_use]
pub fn greedy_allocate(ctx: &SchedContext<'_>, order: &[usize]) -> Allocation {
    let mut remaining = ctx.total_bw;
    let mut grants = Vec::with_capacity(order.len());
    for &idx in order {
        if saturated(remaining) {
            break;
        }
        let app = &ctx.pending[idx];
        grant_step(app.id, app.max_bw, &mut remaining, &mut grants);
    }
    grants.sort_unstable_by_key(|&(id, _)| id);
    Allocation { grants }
}

/// The grant loop's stop test: nothing (within `EPS`) is left to grant.
#[inline]
fn saturated(remaining: Bw) -> bool {
    remaining.get() <= 0.0 || remaining.is_zero()
}

/// One step of the grant loop: favor `id` with `min(cap, remaining)`.
#[inline]
fn grant_step(id: AppId, cap: Bw, remaining: &mut Bw, grants: &mut Vec<(AppId, Bw)>) {
    let bw = cap.min(*remaining);
    if bw.get() > 0.0 {
        grants.push((id, bw));
        *remaining -= bw;
        *remaining = remaining.snap_zero();
    }
}

/// A preference stated once per application: the heuristic favors the
/// pending application with the smallest `(rank, AppId)`.
///
/// A rank is a `u128`: the high 64 bits hold a class word (Priority's
/// "not started" bit, MinMax-γ's "not below γ" group), the low 64 bits the
/// IEEE-754 total-order image of an `f64` key (see `rank_key`); the
/// class word's top bit belongs to [`crate::heuristics::Priority`]. Because
/// the `AppId` tie-break makes the order strict on distinct applications,
/// every way of finding it — a full sort (`order_into_by_rank`) or the
/// selection of the consumed prefix (`Selection`) — yields the same order
/// and the same grants.
pub trait Ranked {
    /// The rank of `a`; smaller is more favored.
    fn rank(&self, a: &AppState) -> u128;
}

/// A rank with class word `class` and `f64` key `key`: classes order
/// first, then keys ascending in `f64::total_cmp` order.
#[inline]
#[must_use]
pub(crate) fn rank_key(class: u64, key: f64) -> u128 {
    u128::from(class) << 64 | u128::from(total_order_image(key))
}

/// Fill `out` with the `(rank, id, pending-index)` entry of every pending
/// application.
fn fill_ranks<R: Ranked + ?Sized>(
    ranked: &R,
    pending: &[AppState],
    out: &mut Vec<(u128, AppId, usize)>,
) {
    out.clear();
    out.extend(
        pending
            .iter()
            .enumerate()
            .map(|(i, a)| (ranked.rank(a), a.id, i)),
    );
}

/// Picks a [`Selection`] makes by linear scan before it sorts what is
/// left. Past it the grant is wide (an uncongested PFS), and the sort
/// keeps the worst case at `O(n log n)`.
const SCAN_PICKS: usize = 8;

/// A [`Ranked`] order over the pending applications, selected only as
/// far as it is read.
///
/// A grant loop stops as soon as the PFS is saturated, which under
/// congestion is after two or three applications, so ranking every
/// pending application is mostly wasted. The ranks are computed once;
/// [`Selection::get`] finds the next favored application by a linear
/// scan for the minimum `(rank, id)`, and after 8 picks sorts the rest
/// once. Because the `AppId` tie-break makes the order strict, the picks
/// are exactly [`order_into_by_rank`]'s permutation, read from the front.
/// Several passes may read one selection: a pick is made once and read
/// back from then on.
pub(crate) struct Selection<'s> {
    /// `(rank, id, pending-index)` of every pending application;
    /// `cands[..ready]` are the picks so far, most-favored first.
    cands: &'s mut [(u128, AppId, usize)],
    ready: usize,
}

impl<'s> Selection<'s> {
    /// Rank `pending` into `buf` and start selecting.
    pub(crate) fn new<R: Ranked + ?Sized>(
        ranked: &R,
        pending: &[AppState],
        buf: &'s mut Vec<(u128, AppId, usize)>,
    ) -> Self {
        fill_ranks(ranked, pending, buf);
        Self {
            cands: buf,
            ready: 0,
        }
    }

    /// The pending index of the `p`-th favored application (from 0).
    /// Picks are made in order, so `p` is at most the number made so far.
    #[inline]
    pub(crate) fn get(&mut self, p: usize) -> usize {
        debug_assert!(p <= self.ready, "picks are made in order");
        let cands = &mut *self.cands;
        if p == self.ready {
            if p < SCAN_PICKS {
                let mut best = p;
                for k in p + 1..cands.len() {
                    if cands[k] < cands[best] {
                        best = k;
                    }
                }
                cands.swap(p, best);
                self.ready += 1;
            } else {
                cands[p..].sort_unstable();
                self.ready = cands.len();
            }
        }
        cands[p].2
    }

    /// The shared grant loop over this order: favor the picks in turn,
    /// each with `min(cap(p, i), remaining)` for pick `p` at pending
    /// index `i`, until `total` is spent. Grants are appended to `grants`
    /// in pick order. Each step runs the arithmetic of
    /// [`greedy_allocate`] on the same applications in the same order.
    #[inline]
    pub(crate) fn grant(
        &mut self,
        pending: &[AppState],
        total: Bw,
        mut cap: impl FnMut(usize, usize) -> Bw,
        grants: &mut Vec<(AppId, Bw)>,
    ) {
        let mut remaining = total;
        for p in 0..self.cands.len() {
            if saturated(remaining) {
                break;
            }
            let i = self.get(p);
            grant_step(pending[i].id, cap(p, i), &mut remaining, grants);
        }
    }
}

/// The shared grant loop over a [`Ranked`] order, into `scratch.alloc`:
/// bit-identical to [`greedy_allocate`] over [`order_into_by_rank`]'s
/// permutation, selecting only the applications the loop consumes. The
/// grants come out sorted by `AppId`.
pub(crate) fn allocate_into_by_rank<R: Ranked + ?Sized>(
    ranked: &R,
    ctx: &SchedContext<'_>,
    scratch: &mut AllocScratch,
) {
    let grants = &mut scratch.alloc.grants;
    grants.clear();
    Selection::new(ranked, ctx.pending, &mut scratch.ranked).grant(
        ctx.pending,
        ctx.total_bw,
        |_, i| ctx.pending[i].max_bw,
        grants,
    );
    grants.sort_unstable_by_key(|&(id, _)| id);
}

/// Fill `scratch.order` with the pending indices sorted by `(rank, id)`:
/// the full preference order of a [`Ranked`] policy. This is the one sort
/// of the policies in this crate; an order by one `f64` key ascending,
/// ties by `AppId`, ranks `rank_key(0, key)`.
pub(crate) fn order_into_by_rank<R: Ranked + ?Sized>(
    ranked: &R,
    ctx: &SchedContext<'_>,
    scratch: &mut AllocScratch,
) {
    fill_ranks(ranked, ctx.pending, &mut scratch.ranked);
    scratch.ranked.sort_unstable();
    scratch.order.clear();
    scratch
        .order
        .extend(scratch.ranked.iter().map(|&(_, _, i)| i));
}

/// The IEEE-754 total-order bijection (flip every bit of a negative, set
/// the sign bit of a non-negative): `u64` order on the images is exactly
/// `f64::total_cmp` order on the values.
#[inline]
pub(crate) fn total_order_image(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Tiny fixtures for policy unit tests (used by this crate and by the
/// baseline/bench crates' test suites; not part of the stable API).
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Build a pending-app snapshot with sensible defaults for tests.
    #[must_use]
    pub fn app(id: usize, max_bw_gib: f64) -> AppState {
        AppState {
            id: AppId(id),
            procs: 100,
            dilation_ratio: 1.0,
            syseff_key: 100.0,
            last_io_end: Time::ZERO,
            io_requested_at: Time::ZERO,
            started_io: false,
            max_bw: Bw::gib_per_sec(max_bw_gib),
        }
    }

    /// Build a context over `pending` with total bandwidth `total_gib`.
    #[must_use]
    pub fn ctx(total_gib: f64, pending: &[AppState]) -> SchedContext<'_> {
        SchedContext {
            now: Time::secs(100.0),
            total_bw: Bw::gib_per_sec(total_gib),
            pending,
            signal: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{app, ctx};
    use super::*;

    #[test]
    fn greedy_grants_in_order_until_saturation() {
        let pending = [app(0, 6.0), app(1, 6.0), app(2, 6.0)];
        let c = ctx(10.0, &pending);
        let alloc = greedy_allocate(&c, &[0, 1, 2]);
        assert!(alloc.granted(AppId(0)).approx_eq(Bw::gib_per_sec(6.0)));
        assert!(alloc.granted(AppId(1)).approx_eq(Bw::gib_per_sec(4.0)));
        assert!(alloc.granted(AppId(2)).is_zero());
        alloc.validate(&c).unwrap();
    }

    #[test]
    fn greedy_respects_order_argument() {
        let pending = [app(0, 10.0), app(1, 10.0)];
        let c = ctx(10.0, &pending);
        let alloc = greedy_allocate(&c, &[1, 0]);
        assert!(alloc.granted(AppId(1)).approx_eq(Bw::gib_per_sec(10.0)));
        assert!(alloc.granted(AppId(0)).is_zero());
    }

    #[test]
    fn greedy_with_no_pending_grants_nothing() {
        let pending: [AppState; 0] = [];
        let c = ctx(10.0, &pending);
        let alloc = greedy_allocate(&c, &[]);
        assert!(alloc.grants.is_empty());
        assert!(alloc.total().is_zero());
    }

    #[test]
    fn allocation_lookup_and_total() {
        let alloc = Allocation {
            grants: vec![
                (AppId(0), Bw::gib_per_sec(2.0)),
                (AppId(3), Bw::gib_per_sec(1.0)),
            ],
        };
        assert!(alloc.granted(AppId(0)).approx_eq(Bw::gib_per_sec(2.0)));
        assert!(alloc.granted(AppId(1)).is_zero());
        assert!(alloc.total().approx_eq(Bw::gib_per_sec(3.0)));
    }

    #[test]
    fn validate_catches_overcommit() {
        let pending = [app(0, 6.0), app(1, 6.0)];
        let c = ctx(10.0, &pending);
        let alloc = Allocation {
            grants: vec![
                (AppId(0), Bw::gib_per_sec(6.0)),
                (AppId(1), Bw::gib_per_sec(6.0)),
            ],
        };
        assert!(alloc.validate(&c).is_err());
    }

    #[test]
    fn validate_catches_per_app_cap() {
        let pending = [app(0, 2.0)];
        let c = ctx(10.0, &pending);
        let alloc = Allocation {
            grants: vec![(AppId(0), Bw::gib_per_sec(3.0))],
        };
        assert!(alloc.validate(&c).is_err());
    }

    #[test]
    fn validate_catches_duplicates_and_strangers() {
        let pending = [app(0, 2.0)];
        let c = ctx(10.0, &pending);
        let dup = Allocation {
            grants: vec![
                (AppId(0), Bw::gib_per_sec(1.0)),
                (AppId(0), Bw::gib_per_sec(1.0)),
            ],
        };
        assert!(dup.validate(&c).is_err());
        let stranger = Allocation {
            grants: vec![(AppId(7), Bw::gib_per_sec(1.0))],
        };
        assert!(stranger.validate(&c).is_err());
    }

    #[test]
    fn greedy_returns_grants_in_app_id_order() {
        let pending = [app(0, 4.0), app(1, 4.0), app(2, 4.0)];
        let c = ctx(10.0, &pending);
        // Preference order 2, 0, 1 — grants still come back id-sorted.
        let alloc = greedy_allocate(&c, &[2, 0, 1]);
        let ids: Vec<usize> = alloc.grants.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        alloc.validate(&c).unwrap();
    }

    #[test]
    fn validate_rejects_unsorted_grants() {
        let pending = [app(0, 2.0), app(1, 2.0)];
        let c = ctx(10.0, &pending);
        let unsorted = Allocation {
            grants: vec![
                (AppId(1), Bw::gib_per_sec(1.0)),
                (AppId(0), Bw::gib_per_sec(1.0)),
            ],
        };
        let err = unsorted.validate(&c).unwrap_err();
        assert!(err.contains("sorted"), "unexpected error: {err}");
    }

    #[test]
    fn order_by_key_breaks_ties_by_id() {
        struct Tied;
        impl Ranked for Tied {
            fn rank(&self, _: &AppState) -> u128 {
                rank_key(0, 0.0)
            }
        }
        let pending = [app(2, 1.0), app(0, 1.0), app(1, 1.0)];
        let mut scratch = AllocScratch::new();
        order_into_by_rank(&Tied, &ctx(10.0, &pending), &mut scratch);
        let ids: Vec<usize> = scratch.order().iter().map(|&i| pending[i].id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    /// Application `id` with a dilation ratio from four values, so keys
    /// tie often.
    fn keyed_app(id: usize) -> AppState {
        let mut a = app(id, 1.0);
        a.dilation_ratio = ((id * 7) % 11 / 3) as f64 / 4.0;
        a
    }

    /// MinDilation's preference, for the helper tests.
    struct ByRatio;
    impl Ranked for ByRatio {
        fn rank(&self, a: &AppState) -> u128 {
            rank_key(0, a.dilation_ratio)
        }
    }

    #[test]
    fn greedy_into_is_bit_identical_to_greedy() {
        // Congested (two grants, within the scan), and uncongested with
        // every application granted (past the scan cap, so the sort
        // fallback serves the tail). Pending is out of `AppId` order and
        // the keys tie, so both the tie-break and the final id sort count.
        for (n, total) in [(3, 10.0), (40, 1e4)] {
            let mut pending: Vec<AppState> = (0..n).map(keyed_app).collect();
            pending.rotate_left(n / 3);
            for (k, a) in pending.iter_mut().enumerate() {
                a.max_bw = Bw::gib_per_sec(6.0 + (k % 5) as f64);
            }
            let c = ctx(total, &pending);
            let mut scratch = AllocScratch::new();
            allocate_into_by_rank(&ByRatio, &c, &mut scratch);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&x, &y| {
                let (x, y) = (&pending[x], &pending[y]);
                x.dilation_ratio
                    .total_cmp(&y.dilation_ratio)
                    .then(x.id.cmp(&y.id))
            });
            let reference = greedy_allocate(&c, &order);
            let bits = |g: &[(AppId, Bw)]| -> Vec<(AppId, u64)> {
                g.iter().map(|&(id, bw)| (id, bw.get().to_bits())).collect()
            };
            assert_eq!(bits(&scratch.alloc.grants), bits(&reference.grants));
            let granted = if n == 3 { 2 } else { n };
            assert_eq!(scratch.alloc.grants.len(), granted);
        }
    }

    #[test]
    fn rank_order_sorts_by_class_then_key_then_id() {
        let pending = [app(2, 1.0), app(0, 1.0), app(1, 1.0), app(3, 1.0)];
        let c = ctx(10.0, &pending);
        let mut scratch = AllocScratch::new();
        order_into_by_rank(&ByRatio, &c, &mut scratch);
        let ids: Vec<usize> = scratch.order().iter().map(|&i| pending[i].id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(rank_key(0, f64::INFINITY) < rank_key(1, f64::NEG_INFINITY));
        assert!(rank_key(0, -0.0) < rank_key(0, 0.0));
        assert!(rank_key(0, -1.0) < rank_key(0, -0.0));
    }

    #[test]
    fn provided_order_and_allocate_wrap_the_in_place_path() {
        /// Least-favored-id-first greedy, with a stated order.
        struct Reversed;
        impl OnlinePolicy for Reversed {
            fn name(&self) -> String {
                "reversed".into()
            }
            fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
                scratch.order.clear();
                scratch.order.extend((0..ctx.pending.len()).rev());
            }
            fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
                self.order_into(ctx, scratch);
                scratch.alloc = greedy_allocate(ctx, &scratch.order);
            }
        }
        /// Nothing granted, no order stated.
        struct Idle;
        impl OnlinePolicy for Idle {
            fn name(&self) -> String {
                "idle".into()
            }
            fn allocate_into(&mut self, _: &SchedContext<'_>, scratch: &mut AllocScratch) {
                scratch.alloc.grants.clear();
            }
        }
        let pending = [app(0, 6.0), app(1, 6.0), app(2, 6.0)];
        let c = ctx(10.0, &pending);
        let mut scratch = AllocScratch::new();
        Reversed.allocate_into(&c, &mut scratch);
        assert_eq!(scratch.alloc, Reversed.allocate(&c));
        assert_eq!(Reversed.order(&c), vec![2, 1, 0]);
        assert!(Reversed.allocate(&c).granted(AppId(0)).is_zero());
        assert_eq!(Idle.order(&c), vec![0, 1, 2]);
        assert_eq!(Idle.allocate(&c), Allocation::empty());
    }
}

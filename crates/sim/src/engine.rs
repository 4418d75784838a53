//! The fluid discrete-event engine.
//!
//! Between two scheduling events every transferring application receives a
//! constant bandwidth, so remaining volumes decay linearly and the next
//! event time is computed in closed form — no time stepping, no drift.
//! Event kinds:
//!
//! * application release (`r_k`),
//! * compute-chunk completion (deterministic: resources are dedicated),
//! * I/O-transfer completion (depends on the granted rates),
//! * burst-buffer throttle flips (full / re-opened).
//!
//! After every event the installed [`OnlinePolicy`] re-allocates bandwidth
//! (§3.1: "at each event, the scheduler looks at the current state of the
//! system […] then, based on a given strategy, it chooses a subset of
//! applications and allows them to start or continue their I/O").
//!
//! ## Lifecycle
//!
//! The engine is an explicit state machine with one way in: a
//! release-ordered arrival queue. The three constructors differ only in
//! how they fill it. [`Simulation::new`] validates a closed roster as a
//! whole (dense ids, `Σβ ≤ N`), queues it sorted by `(release, AppId)`
//! and closes admission; [`Simulation::from_stream`] refills the queue
//! from a lazy source one lookahead at a time; [`Simulation::open`]
//! starts it empty and takes [`Simulation::offer`]s. Every arrival is
//! validated where it enters the queue, so admitting one when the clock
//! reaches its release cannot fail. [`Simulation::step`] advances to
//! exactly one next event, and [`Simulation::run_to_completion`] drives
//! steps until every application finished and assembles the
//! [`SimOutcome`]. The free functions [`simulate`], [`simulate_stream`]
//! and [`simulate_open`] wrap them for the common one-shot case;
//! steppable use (debuggers, the serve daemon's session) talks to the
//! struct directly:
//!
//! ```
//! use iosched_model::{AppSpec, Bytes, Platform, Time};
//! use iosched_core::heuristics::MinDilation;
//! use iosched_sim::engine::{SimConfig, Simulation};
//!
//! let platform = Platform::vesta();
//! let apps = [AppSpec::periodic(0, Time::ZERO, 64, Time::secs(10.0), Bytes::gib(50.0), 3)];
//! let mut policy = MinDilation;
//! let config = SimConfig::default();
//! let mut sim = Simulation::new(&platform, &apps, &mut policy, &config).unwrap();
//! while !sim.is_finished() {
//!     sim.step().unwrap(); // inspect sim.now(), sim.pending_apps(), …
//! }
//! let outcome = sim.into_outcome();
//! assert!(outcome.report.dilation >= 1.0);
//! ```
//!
//! ## Performance discipline
//!
//! The steady-state step path performs no per-event heap allocation on
//! either side of the policy boundary: the pending set (indices of
//! applications that currently want I/O) is maintained incrementally
//! across events instead of rescanned, arrivals wait in the
//! release-ordered queue, compute completions in a binary heap,
//! retired slots are recycled, and the predicted-completion scratch, the
//! [`StateBuffer`] policy snapshot and the policy's [`AllocScratch`]
//! (which receives the grants through
//! [`OnlinePolicy::allocate_into`]) are reused across events. The
//! snapshot is not rebuilt either: it is kept at the pending set's
//! positions, an entry is built whole when its application enters `Io`,
//! and each allocation rewrites only what time or capacity can have
//! moved — the two progress keys (skipped, with their divisions, for a
//! policy that declares it reads neither through
//! [`OnlinePolicy::reads_progress_keys`]), `started_io`, and `max_bw`
//! when the capacity changed — with the same operations on the same
//! operands as a whole rebuild, so the same bits. Installing
//! an allocation costs `O(grants)`, not `O(pending)`: the engine keeps the
//! last allocation's grants as `(AppId, slot)` pairs, a pending slot
//! outside that list always has a zero rate, and each allocation walks
//! only the previous and the new grant list — zeroing the applications
//! that lost their grant and installing the new ones. The predicted
//! completions themselves are cached as absolute times behind a dirty
//! flag — a transfer at constant rate finishes at the same instant no
//! matter when it is predicted — so events that change no grant,
//! capacity or phase (burst-buffer level crossings, timetable wakeups
//! that confirm the running allocation, external-load boundaries) skip
//! the per-event rescan entirely. Each inter-event interval is closed in
//! one place: the [`TelemetrySample`] the last allocation opened is the
//! single record of its start, end and capacity, and the telemetry tap,
//! the steady-state window and the trace segment are all fed from it.
//! Trace segments are only materialized when [`SimConfig::record_trace`]
//! asks for them, and read the grant list too.
//!
//! ## Numerical discipline
//!
//! I/O completions are *predicted* (`remaining / rate`) while scanning for
//! the next event and the winners' residual volumes are zeroed explicitly
//! after the advance, so floating-point residue can never spawn phantom
//! micro-events. Times compare through the global `EPS` of
//! [`iosched_model::units`].

use crate::burst_buffer::BurstBufferState;
use crate::error::SimError;
use crate::external_load::ExternalLoad;
use crate::outcome::SimOutcome;
use crate::state::{AppRuntime, HotState, PhaseTag};
use crate::steady::SteadyAccum;
use crate::telemetry::{Telemetry, TelemetrySample};
use crate::trace::{BandwidthTrace, TraceSegment};
use iosched_core::policy::{AllocScratch, AppState, OnlinePolicy, StateBuffer};
use iosched_model::app::{validate_open_arrival, validate_open_scenario, validate_scenario};
use iosched_model::{
    AppId, AppOutcome, AppSpec, Bw, Bytes, ObjectiveAccumulator, ObjectiveReport, Platform, Time,
    EPS,
};
use iosched_obs::{DecisionTrace, TraceEvent};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Route application I/O through the platform's burst buffer (the
    /// platform must carry a [`iosched_model::BurstBufferSpec`]).
    pub use_burst_buffer: bool,
    /// Record the full piecewise-constant allocation trace.
    pub record_trace: bool,
    /// Hard event budget (guards against configuration bugs).
    pub max_events: usize,
    /// §7 extension — shared I/O/communication network: periodic
    /// communication traffic stealing a fraction of `B`. Mutually
    /// exclusive with `use_burst_buffer` (the communication network sits
    /// between compute nodes and the storage tier).
    pub external_load: Option<ExternalLoad>,
    /// Collect the full per-event telemetry series and attach a
    /// [`crate::telemetry::TelemetrySummary`] to the outcome. The tap
    /// itself (ring buffer + congestion signal for policies) is always
    /// on; this flag only opts into the allocating series needed for
    /// the exported quantiles. Simulated results are bit-identical with
    /// the flag on or off.
    pub telemetry: bool,
    /// Steady-state transient to trim: the [`crate::SteadySummary`]
    /// attached to the outcome ignores everything before this instant.
    /// A positive warmup (or a `horizon`, or a stream-driven run) turns
    /// the steady-state accumulator on; it observes only and never
    /// changes simulated results.
    pub warmup: Time,
    /// Hard stop: the run halts once the next event would land past
    /// this instant, reporting whatever completed by then. `None` (the
    /// default) runs every application to completion — required for the
    /// closed-roster experiments, whose pins predate this knob.
    pub horizon: Option<Time>,
    /// Keep the per-application outcome detail (`report.per_app`,
    /// `per_app_bytes`). On by default; switching it off makes the
    /// outcome `O(1)` in the number of applications — the aggregate
    /// objectives and the steady-state summary are folded streamingly —
    /// which is what lets a 10k-application stream run in memory
    /// proportional to its *concurrency*. With the flag off,
    /// `report.per_app` is empty and `report.makespan()` is therefore 0;
    /// use `end_time` and the steady summary instead.
    pub per_app_detail: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            use_burst_buffer: false,
            record_trace: false,
            max_events: 10_000_000,
            external_load: None,
            telemetry: false,
            warmup: Time::ZERO,
            horizon: None,
            per_app_detail: true,
        }
    }
}

impl serde::Serialize for SimConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                "use_burst_buffer".to_string(),
                self.use_burst_buffer.to_value(),
            ),
            ("record_trace".to_string(), self.record_trace.to_value()),
            ("max_events".to_string(), self.max_events.to_value()),
            ("external_load".to_string(), self.external_load.to_value()),
            ("telemetry".to_string(), self.telemetry.to_value()),
            ("warmup".to_string(), self.warmup.to_value()),
            ("horizon".to_string(), self.horizon.to_value()),
            ("per_app_detail".to_string(), self.per_app_detail.to_value()),
        ])
    }
}

/// Deserializes leniently: absent fields keep their [`SimConfig::default`]
/// values, so experiment specs only state what they change
/// (`{"use_burst_buffer": true}`).
impl serde::Deserialize for SimConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for SimConfig"))?;
        let defaults = Self::default();
        fn field<T: serde::Deserialize>(
            m: &[(String, serde::Value)],
            key: &str,
            default: T,
        ) -> Result<T, serde::Error> {
            match serde::map_get(m, key) {
                serde::Value::Null => Ok(default),
                present => T::from_value(present).map_err(|e| e.at(key)),
            }
        }
        for (key, _) in m {
            if !matches!(
                key.as_str(),
                "use_burst_buffer"
                    | "record_trace"
                    | "max_events"
                    | "external_load"
                    | "telemetry"
                    | "warmup"
                    | "horizon"
                    | "per_app_detail"
            ) {
                return Err(serde::Error::custom(format!(
                    "unknown SimConfig field '{key}'"
                )));
            }
        }
        let config = Self {
            use_burst_buffer: field(m, "use_burst_buffer", defaults.use_burst_buffer)?,
            record_trace: field(m, "record_trace", defaults.record_trace)?,
            max_events: field(m, "max_events", defaults.max_events)?,
            external_load: field(m, "external_load", defaults.external_load)?,
            telemetry: field(m, "telemetry", defaults.telemetry)?,
            warmup: field(m, "warmup", defaults.warmup)?,
            horizon: field(m, "horizon", defaults.horizon)?,
            per_app_detail: field(m, "per_app_detail", defaults.per_app_detail)?,
        };
        config.validate().map_err(serde::Error::custom)?;
        Ok(config)
    }
}

impl SimConfig {
    /// Default configuration with trace recording on.
    #[must_use]
    pub fn traced() -> Self {
        Self {
            record_trace: true,
            ..Self::default()
        }
    }

    /// Default configuration with the burst buffer enabled.
    #[must_use]
    pub fn with_burst_buffer() -> Self {
        Self {
            use_burst_buffer: true,
            ..Self::default()
        }
    }

    /// Default configuration with telemetry-summary export enabled.
    #[must_use]
    pub fn with_telemetry() -> Self {
        Self {
            telemetry: true,
            ..Self::default()
        }
    }

    /// Default configuration windowed for steady-state observation:
    /// trim `warmup`, stop at `horizon`.
    #[must_use]
    pub fn windowed(warmup: Time, horizon: Time) -> Self {
        Self {
            warmup,
            horizon: Some(horizon),
            ..Self::default()
        }
    }

    /// Window-knob sanity: a negative/non-finite warmup or a
    /// non-positive horizon is always a configuration bug.
    pub fn validate(&self) -> Result<(), String> {
        if !self.warmup.is_finite() || self.warmup.get() < 0.0 {
            return Err(format!(
                "warmup {} must be finite and non-negative",
                self.warmup
            ));
        }
        if let Some(h) = self.horizon {
            if !h.is_finite() || h.get() <= 0.0 {
                return Err(format!("horizon {h} must be positive and finite"));
            }
            if h <= self.warmup {
                return Err(format!(
                    "horizon {h} must lie past the warmup {}",
                    self.warmup
                ));
            }
        }
        Ok(())
    }

    /// True when the steady-state accumulator should run (a window knob
    /// is set; stream-driven constructions force it regardless).
    #[must_use]
    fn wants_steady(&self) -> bool {
        self.warmup.get() > 0.0 || self.horizon.is_some() || !self.per_app_detail
    }
}

/// What one [`Simulation::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The engine advanced to the next event; more remain possible.
    Advanced,
    /// Every application has finished; the step was a no-op.
    Finished,
    /// Open admission, nothing in the system and nothing queued: the
    /// engine is waiting for an external [`Simulation::offer`]. The
    /// step was a no-op (no event was consumed, the clock did not
    /// move). Never returned by the closed-roster or stream modes —
    /// there an eventless unfinished system is a policy bug and stays
    /// the [`SimError::PolicyStalledSystem`] diagnostic.
    Idle,
}

/// Where [`Simulation::run_until`] stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunStatus {
    /// Every admitted application finished and admission is exhausted
    /// (or the horizon halted the run).
    Finished,
    /// The next scheduling event lies past the requested bound; the
    /// payload is its time. The engine clock stays at the last event —
    /// advancement bounds never inject events, which is what keeps a
    /// bounded drive bit-identical to free running.
    Blocked(Time),
    /// Open admission with nothing to do before the bound: the engine
    /// is waiting for an external [`Simulation::offer`].
    Idle,
}

/// Membership of the I/O-pending set: dense `(AppId, slot)` pairs kept
/// in ascending `AppId` order (which policies rely on). Storing the id
/// inline makes the binary searches and the per-event scans touch one
/// flat array instead of chasing `slot → spec → id` through the arena;
/// with the pending population tracking *concurrency* (tens, not the
/// admitted total), the ordered insert's memmove stays within a cache
/// line or two. Insert and remove return the position they changed, at
/// which the engine mirrors the change into its policy snapshot.
#[derive(Debug, Default)]
struct PendingSet {
    entries: Vec<(AppId, usize)>,
}

impl PendingSet {
    fn with_capacity(n: usize) -> Self {
        Self {
            entries: Vec::with_capacity(n),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn entries(&self) -> &[(AppId, usize)] {
        &self.entries
    }

    /// The position of `id`, if pending.
    fn position(&self, id: AppId) -> Option<usize> {
        self.entries.binary_search_by_key(&id, |&(pid, _)| pid).ok()
    }

    /// Insert if absent; the new entry's position when the membership
    /// changed.
    fn insert(&mut self, id: AppId, slot: usize) -> Option<usize> {
        let pos = self
            .entries
            .binary_search_by_key(&id, |&(pid, _)| pid)
            .err()?;
        self.entries.insert(pos, (id, slot));
        Some(pos)
    }

    /// Remove if present; the removed entry's position when the
    /// membership changed.
    fn remove(&mut self, id: AppId) -> Option<usize> {
        let pos = self.position(id)?;
        self.entries.remove(pos);
        Some(pos)
    }
}

/// A compute completion on the engine's compute heap, ordered so that
/// `BinaryHeap::peek` yields the *earliest* completion, ties broken by
/// ascending `AppId` (stable under roster permutation and slot reuse —
/// the slot `idx` is only the access path).
#[derive(Debug, Clone, Copy)]
struct ComputeEvent {
    at: Time,
    id: AppId,
    idx: usize,
}

impl PartialEq for ComputeEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ComputeEvent {}

impl PartialOrd for ComputeEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ComputeEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the max-heap surfaces the minimum time.
        other
            .at
            .get()
            .total_cmp(&self.at.get())
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Where applications come from: arrivals wait in release order on
/// `queue` until the clock reaches them. The queue has three writers —
/// a closed roster queued whole at construction, an optional `feeder`
/// iterator refilled after every admission (the stream mode: the engine
/// never holds more than the live set plus one lookahead), and external
/// [`Simulation::offer`] calls (the daemon mode). Admission is
/// *exhausted* once `closed` is set, the feeder is drained and the queue
/// is empty.
struct Admission<'a> {
    queue: VecDeque<AppSpec>,
    /// Auto-refill source (`None` when drained or never installed).
    /// Installed by [`Simulation::from_stream`]; mutually exclusive with
    /// external offers.
    feeder: Option<Box<dyn Iterator<Item = AppSpec> + 'a>>,
    /// No external arrival can appear: set at construction for rosters
    /// and streams, and by [`Simulation::close_admission`] in daemon
    /// mode.
    closed: bool,
}

/// One in-flight fluid simulation: the explicit state machine behind
/// [`simulate`].
///
/// See the [module docs](self) for the lifecycle and the buffer-reuse
/// guarantees of the step path.
pub struct Simulation<'a> {
    platform: &'a Platform,
    policy: &'a mut dyn OnlinePolicy,
    config: &'a SimConfig,
    /// Cold slot arena of live (and recently finished) application
    /// records (spec, ρ̃/ρ bookkeeping, instance counter) — touched at
    /// instance boundaries only. Finished slots are recycled through
    /// `free`, so the arena size tracks peak *concurrency*, not total
    /// admissions.
    rts: Vec<AppRuntime>,
    /// Dense struct-of-arrays hot state, parallel to `rts`: everything
    /// the per-event passes (decay, completion scan, policy snapshot,
    /// grant application) read or write.
    hot: HotState,
    /// Recycled slots of retired applications.
    free: Vec<usize>,
    /// Where new applications come from.
    admission: Admission<'a>,
    /// Applications released off the queue into a slot so far.
    admitted: usize,
    /// Release time of the last open arrival that entered the queue
    /// (stream-order validation of the next one).
    last_release: Time,
    /// Compact per-application results, drained out of the slots at
    /// retirement (kept iff [`SimConfig::per_app_detail`]).
    retired: Vec<(AppOutcome, Bytes)>,
    /// Streaming objective aggregates (maintained iff the per-app
    /// detail is off).
    agg: ObjectiveAccumulator,
    /// Warmup-trimmed steady-state accumulator (see
    /// [`SimConfig::warmup`]); `None` when no window knob asked for it.
    steady: Option<SteadyAccum>,
    /// Set when the horizon cut the run short.
    halted: bool,
    bb: Option<BurstBufferState>,
    now: Time,
    events: usize,
    finished: usize,
    drain_bw: Bw,
    /// Aggregate effective inflow installed by the last allocation
    /// (`Σ effective` over the grants, accumulated during the apply
    /// walk). Nothing mutates a rate between an allocation and the next
    /// event scan, so the cache replaces a per-scan rescan of the pending
    /// set bit-for-bit.
    inflow: Bw,
    /// Applications currently in the `Io` phase. Maintained
    /// incrementally by the transition handlers.
    pending: PendingSet,
    /// Outstanding compute completions, earliest first (ties by
    /// `AppId`).
    compute: BinaryHeap<ComputeEvent>,
    /// Reused scratch: predicted I/O completions, as *absolute* times.
    /// Valid across events as long as no grant, capacity or phase
    /// changed: a transfer at constant rate completes at the same
    /// absolute instant no matter when it is predicted, so the per-event
    /// rescan of all pending applications is skipped until
    /// `predicted_dirty` says otherwise.
    predicted: Vec<(usize, Time)>,
    /// Double-buffer for the fused rebuild: the apply walk in
    /// [`Simulation::allocate`] computes every granted application's
    /// predicted completion *as it installs the rates* — same `now`, same
    /// residues, same effective rates as the event-scan rebuild would see
    /// one step later, hence bit-identical — and commits it by swap iff
    /// the step left the predictions dirty. The scan-time rebuild remains
    /// only as the rare fallback (first event, empty-pending steps).
    predicted_next: Vec<(usize, Time)>,
    /// Minimum of the cached predictions (`INFINITY` when none),
    /// maintained alongside the rebuild so the clean path folds one value
    /// into `t_next` instead of rescanning the scratch.
    predicted_min: Time,
    /// Set by every mutation that can move a predicted completion: a
    /// pending-set change, an instance completion, or an allocation that
    /// installed a different rate for any application.
    predicted_dirty: bool,
    /// Slots whose transfer completed during the advance to the current
    /// event, in `AppId` order (inherited from the predicted scan) —
    /// the settle pass visits exactly these instead of rescanning the
    /// whole pending set.
    completed: Vec<usize>,
    /// The policy snapshot, kept across events at the positions of
    /// `pending`: an entry is built whole when its application enters
    /// `Io` and removed when it leaves, and each allocation rewrites only
    /// what can have moved since — the progress keys (when the policy
    /// reads them), `started_io`, and `max_bw` when the capacity changed.
    /// A zero-work instance that keeps its application pending rewrites
    /// the entry's two I/O instants in [`Simulation::settle_app`].
    snapshot: StateBuffer,
    /// The capacity every snapshot `max_bw` is clamped to (NaN before the
    /// first allocation): the next refresh re-clamps only when the
    /// capacity's bits differ from it.
    snapshot_capacity: Bw,
    /// [`OnlinePolicy::reads_progress_keys`], read once at construction:
    /// when false, the snapshot's two progress keys stay NaN and the
    /// refresh skips their divisions.
    keys: bool,
    /// Reused policy workspace: the grant vector the policy fills in
    /// place plus its ordering scratch — no per-event allocation on
    /// either side of the policy boundary.
    scratch: AllocScratch,
    /// The last allocation's grants as `(AppId, slot)` pairs, in `AppId`
    /// order. **Invariant:** a pending slot outside this list has
    /// `rate = effective = 0` — settling an instance zeroes both, a
    /// recycled slot starts at zero, and [`Simulation::allocate`] zeroes
    /// every application that drops out of the list. The apply walk and
    /// the trace segment therefore visit only this list, never the whole
    /// pending set.
    granted: Vec<(AppId, usize)>,
    trace: Option<BandwidthTrace>,
    /// Always-on congestion tap (see [`crate::telemetry`]): ring buffer
    /// of closed inter-event intervals, whose derived signal is handed
    /// to the policy at every allocation. Kept (with its open interval)
    /// at the end of the struct so the step path's hot fields stay
    /// densely packed.
    telemetry: Telemetry,
    /// The interval opened by the last allocation, closed at the next
    /// event (or the horizon halt) by [`Simulation::close_interval`]:
    /// the one record of its start, end and capacity.
    tel_open: TelemetrySample,
    /// Runtime-attached decision trace (see
    /// [`Simulation::enable_decision_trace`]): a bounded ring of
    /// structured scheduling events. Observation-only — `None` (the
    /// default) costs one branch per record site, and attaching one
    /// never changes simulation results.
    dtrace: Option<Box<DecisionTrace>>,
    /// The policy wakeup that entered the last event scan (INFINITY
    /// when none was due): cached by `peek_next_event` so the traced
    /// step can attribute wakeup-won events without a second
    /// `next_wakeup` call.
    wakeup_candidate: Time,
}

impl<'a> Simulation<'a> {
    /// Validate the closed scenario as a whole (dense ids, `Σβ ≤ N`),
    /// queue it in `(release, AppId)` order with admission closed, and
    /// perform the initial allocation at `t = 0`.
    pub fn new(
        platform: &'a Platform,
        apps: &[AppSpec],
        policy: &'a mut dyn OnlinePolicy,
        config: &'a SimConfig,
    ) -> Result<Self, SimError> {
        validate_scenario(platform, apps).map_err(|e| SimError::InvalidScenario(e.to_string()))?;
        let mut roster = apps.to_vec();
        roster.sort_by(|a, b| {
            a.release()
                .get()
                .total_cmp(&b.release().get())
                .then(a.id().cmp(&b.id()))
        });
        let admission = Admission {
            queue: roster.into(),
            feeder: None,
            closed: true,
        };
        Self::start(platform, policy, config, admission, false)
    }

    /// Open-system construction: pull applications from a release-sorted
    /// `source` as the clock reaches them. The engine holds the live set
    /// plus one lookahead — peak memory tracks *concurrency*, not the
    /// stream length. Each arrival is validated as it is pulled
    /// (individually feasible, ids dense in release order); the closed
    /// `Σβ ≤ N` budget deliberately does not apply.
    pub fn from_stream(
        platform: &'a Platform,
        source: impl Iterator<Item = AppSpec> + 'a,
        policy: &'a mut dyn OnlinePolicy,
        config: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let admission = Admission {
            queue: VecDeque::new(),
            feeder: Some(Box::new(source)),
            closed: true, // the feeder is the only source
        };
        Self::start(platform, policy, config, admission, true)
    }

    /// Reentrant open-system construction: the engine starts empty with
    /// admission *open*, and arrivals are pushed in from outside via
    /// [`Simulation::offer`] while stepping — the daemon mode. Stepping
    /// an empty open engine yields [`StepStatus::Idle`] instead of the
    /// stalled-system error; [`Simulation::close_admission`] declares
    /// the arrival sequence complete, after which the run can finish.
    ///
    /// The trajectory is a pure function of the accepted offer sequence:
    /// driving an open engine through the same arrivals as a
    /// release-sorted stream produces bit-identical state, event counts
    /// and outcomes (see [`Simulation::offer`] for the invariant that
    /// guarantees it).
    pub fn open(
        platform: &'a Platform,
        policy: &'a mut dyn OnlinePolicy,
        config: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let admission = Admission {
            queue: VecDeque::new(),
            feeder: None,
            closed: false,
        };
        Self::start(platform, policy, config, admission, true)
    }

    /// Shared second half of the constructors: platform and engine-config
    /// validation, the first feeder pull, initial transitions and the
    /// `t = 0` allocation. Streams and open engines pass `always_steady`
    /// (they carry a steady-state summary whatever the window knobs say).
    fn start(
        platform: &'a Platform,
        policy: &'a mut dyn OnlinePolicy,
        config: &'a SimConfig,
        admission: Admission<'a>,
        always_steady: bool,
    ) -> Result<Self, SimError> {
        platform
            .validate()
            .map_err(|e| SimError::InvalidScenario(e.to_string()))?;
        config.validate().map_err(SimError::InvalidScenario)?;
        let bb = if config.use_burst_buffer {
            let spec = platform.burst_buffer.ok_or_else(|| {
                SimError::InvalidScenario(
                    "use_burst_buffer requires a platform burst buffer".into(),
                )
            })?;
            Some(BurstBufferState::new(spec))
        } else {
            None
        };
        if let Some(load) = &config.external_load {
            load.validate()
                .map_err(|e| SimError::InvalidScenario(e.to_string()))?;
            if bb.is_some() {
                return Err(SimError::InvalidScenario(
                    "external_load and use_burst_buffer are mutually exclusive".into(),
                ));
            }
        }
        // Pre-sized to the roster (a stream or open engine starts at 0
        // and grows with its concurrency).
        let n = admission.queue.len();
        let keys = policy.reads_progress_keys();
        let mut sim = Self {
            platform,
            policy,
            config,
            rts: Vec::with_capacity(n),
            hot: HotState::with_capacity(n),
            free: Vec::new(),
            admission,
            admitted: 0,
            last_release: Time::ZERO,
            retired: Vec::with_capacity(if config.per_app_detail { n } else { 0 }),
            agg: ObjectiveAccumulator::default(),
            steady: (always_steady || config.wants_steady())
                .then(|| SteadyAccum::new(config.warmup)),
            halted: false,
            bb,
            now: Time::ZERO,
            events: 0,
            finished: 0,
            drain_bw: platform.total_bw,
            inflow: Bw::ZERO,
            pending: PendingSet::with_capacity(n),
            compute: BinaryHeap::new(),
            predicted: Vec::with_capacity(n),
            predicted_next: Vec::with_capacity(n),
            predicted_min: Time::INFINITY,
            predicted_dirty: true,
            completed: Vec::with_capacity(n),
            snapshot: StateBuffer::new(),
            snapshot_capacity: Bw::new(f64::NAN),
            keys,
            scratch: AllocScratch::new(),
            granted: Vec::new(),
            trace: config.record_trace.then(BandwidthTrace::default),
            telemetry: Telemetry::new(config.telemetry),
            tel_open: TelemetrySample::idle(Time::ZERO, platform.total_bw),
            dtrace: None,
            wakeup_candidate: Time::INFINITY,
        };
        sim.refill()?;
        if sim.admission.closed && sim.admission.queue.is_empty() {
            return Err(SimError::InvalidScenario(
                "simulation needs at least one application".into(),
            ));
        }
        sim.settle_transitions()?;
        sim.allocate()?;
        Ok(sim)
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Scheduling events processed so far.
    #[must_use]
    pub fn events(&self) -> usize {
        self.events
    }

    /// True once every admitted application completed its last instance
    /// and no further arrivals are possible — or the horizon halted the
    /// run.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        let a = &self.admission;
        let exhausted = a.closed && a.feeder.is_none() && a.queue.is_empty();
        self.halted || (exhausted && self.finished == self.admitted)
    }

    /// True while external [`Simulation::offer`]s can still be accepted:
    /// open admission that has not been closed. Always false for the
    /// closed-roster and stream modes.
    #[must_use]
    pub fn admission_open(&self) -> bool {
        !self.admission.closed && !self.halted
    }

    /// Arrivals accepted but not yet admitted (their releases lie ahead
    /// of the clock): a roster's unreleased applications, a stream's
    /// one-app lookahead, or an open engine's pending offers.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.admission.queue.len()
    }

    /// Push one external arrival into open admission. The accepted offer
    /// sequence fully determines the trajectory: replaying the same
    /// sequence into a fresh [`Simulation::open`] engine reproduces the
    /// run bit-for-bit — which is what makes a write-ahead journal of
    /// accepted offers a complete checkpoint.
    ///
    /// Three acceptance rules, each rejected with an actionable error
    /// and no state change:
    ///
    /// * admission must be open (not a roster/stream engine, not closed,
    ///   not halted),
    /// * the app must be a valid open-system arrival at its queue
    ///   position ([`validate_open_arrival`]: individually feasible,
    ///   dense id, release no earlier than the last queued release),
    /// * its release must lie strictly *after* the engine clock
    ///   ([`Time::approx_gt`]). This is the equivalence invariant: every
    ///   accepted offer enters the queue before the clock reaches its
    ///   release — exactly the relationship a release-sorted stream's
    ///   lookahead has — so the open engine admits it at the same event,
    ///   with the same event count, as [`simulate_stream`] over the same
    ///   sequence would.
    pub fn offer(&mut self, app: AppSpec) -> Result<(), SimError> {
        if self.halted {
            return Err(SimError::InvalidScenario(
                "admission is closed: the horizon already halted this run".into(),
            ));
        }
        if self.admission.feeder.is_some() {
            return Err(SimError::InvalidScenario(
                "admission is fed by a stream source; \
                 external submissions need Simulation::open"
                    .into(),
            ));
        }
        if self.admission.closed {
            return Err(SimError::InvalidScenario(
                "admission has been closed; no further submissions are accepted".into(),
            ));
        }
        if !app.release().approx_gt(self.now) {
            return Err(SimError::InvalidScenario(format!(
                "submission release {} is not after the engine clock {}; \
                 assign a release strictly later than the current time",
                app.release(),
                self.now
            )));
        }
        self.enqueue(app)
    }

    /// Declare the external arrival sequence complete: no further
    /// [`Simulation::offer`] is accepted, and once the queue drains and
    /// every admitted application finishes the run is
    /// [`Simulation::is_finished`]. Idempotent; a no-op for the
    /// closed-roster and stream modes (they are born closed).
    pub fn close_admission(&mut self) {
        self.admission.closed = true;
    }

    /// Validate `app` as the next open arrival — the per-arrival slice
    /// of the open-system contract ([`validate_open_arrival`]:
    /// individually feasible, id dense at its queue position, release no
    /// earlier than the last queued one) — and queue it.
    fn enqueue(&mut self, app: AppSpec) -> Result<(), SimError> {
        let position = self.admitted + self.admission.queue.len();
        validate_open_arrival(self.platform, &app, position, self.last_release)
            .map_err(|e| SimError::InvalidScenario(e.to_string()))?;
        self.last_release = app.release();
        self.admission.queue.push_back(app);
        Ok(())
    }

    /// The stream mode's lookahead discipline: once the queue runs dry,
    /// pull the feeder's next arrival through [`Simulation::enqueue`],
    /// or drop the feeder when the stream ends — so exhaustion (and thus
    /// `is_finished`) is decided the moment the last arrival is
    /// admitted, never a step later. A no-op without a feeder.
    fn refill(&mut self) -> Result<(), SimError> {
        if !self.admission.queue.is_empty() {
            return Ok(());
        }
        let Some(feeder) = &mut self.admission.feeder else {
            return Ok(());
        };
        match feeder.next() {
            Some(app) => self.enqueue(app),
            None => {
                self.admission.feeder = None;
                Ok(())
            }
        }
    }

    /// Applications admitted so far (released off the arrival queue).
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    /// Applications that completed their last instance so far.
    #[must_use]
    pub fn finished_count(&self) -> usize {
        self.finished
    }

    /// Applications currently in the system (admitted, not finished).
    #[must_use]
    pub fn live(&self) -> usize {
        self.admitted - self.finished
    }

    /// Slot indices of applications currently wanting I/O, in ascending
    /// `AppId` order, materialized into a fresh vector (the membership
    /// itself lives in a dense id-keyed structure; see
    /// [`Simulation::pending_len`] for the allocation-free count). Slots
    /// are recycled, so a slot names an application only while it is
    /// live: read its id from [`Simulation::runtimes`].
    #[must_use]
    pub fn pending_apps(&self) -> Vec<usize> {
        self.pending.entries().iter().map(|&(_, i)| i).collect()
    }

    /// Number of applications currently wanting I/O.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Cold per-application runtime slots (inspection hook for
    /// steppable use), sized by peak concurrency: slots are assigned at
    /// admission, not by roster position, and a slot may hold a
    /// *retired* runtime until a later admission recycles it.
    #[must_use]
    pub fn runtimes(&self) -> &[AppRuntime] {
        &self.rts
    }

    /// Effective PFS drain bandwidth installed by the last allocation
    /// (equals the platform bandwidth when no burst buffer is in use).
    #[must_use]
    pub fn drain_bw(&self) -> Bw {
        self.drain_bw
    }

    /// The congestion tap (inspection hook for steppable use: the last
    /// closed interval's signal, windowed aggregates, peaks).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Min-fold over every event source: the earliest instant at which
    /// anything can happen (`INFINITY` when nothing ever will). Mutates
    /// only the predicted-completion cache and the wakeup candidate;
    /// [`Simulation::next_event`] runs it once per decision.
    fn peek_next_event(&mut self) -> Time {
        let mut t_next = Time::INFINITY;
        if let Some(app) = self.admission.queue.front() {
            t_next = t_next.min(app.release());
        }
        if let Some(ev) = self.compute.peek() {
            t_next = t_next.min(ev.at);
        }
        // Predicted I/O completions (to zero residues exactly). The
        // absolute completion instants only move when a rate, the
        // pending set or a phase changed, so the scan is skipped while
        // the cached predictions are still valid.
        if self.predicted_dirty {
            self.predicted.clear();
            let mut pmin = Time::INFINITY;
            for &(_, i) in self.pending.entries() {
                if self.hot.effective[i].get() > 0.0 {
                    let done = self.now + self.hot.remaining[i] / self.hot.effective[i];
                    self.predicted.push((i, done));
                    pmin = pmin.min(done);
                }
            }
            self.predicted_min = pmin;
            self.predicted_dirty = false;
        }
        // Min-folding is associative on these well-formed times (no NaN,
        // equal values share one bit pattern), so the cached minimum is
        // bit-identical to re-folding the scratch here.
        t_next = t_next.min(self.predicted_min);
        if let Some(b) = &self.bb {
            if let Some(dt) = b.next_event_in(self.inflow, self.drain_bw) {
                t_next = t_next.min(self.now + dt.max(Time::ZERO));
            }
        }
        // Timetable-style policies re-allocate at their own boundaries.
        // The candidate is cached for the decision trace's wakeup
        // attribution, sparing the traced step a second virtual call.
        self.wakeup_candidate = Time::INFINITY;
        if let Some(t) = self.policy.next_wakeup(self.now) {
            if t.approx_gt(self.now) {
                t_next = t_next.min(t);
                self.wakeup_candidate = t;
            }
        }
        // Communication traffic changes the available capacity at its
        // busy/idle transitions.
        if let Some(load) = &self.config.external_load {
            if let Some(t) = load.next_boundary(self.now) {
                if t.approx_gt(self.now) {
                    t_next = t_next.min(t);
                }
            }
        }
        t_next
    }

    /// Drive the engine through every event scheduled at or before
    /// `bound`, then report why the drive stopped. The clock only ever
    /// sits on event instants — a bound between events does **not**
    /// advance the fluid state to the bound, so driving in bounded
    /// increments is bit-identical to free running (same events, same
    /// telemetry intervals, same outcome). This is the daemon's main
    /// loop primitive: advance to the virtual wall-clock, then wait for
    /// the earlier of the next event and the next submission.
    pub fn run_until(&mut self, bound: Time) -> Result<RunStatus, SimError> {
        loop {
            if let Some(status) = self.next_event(bound)? {
                return Ok(status);
            }
        }
    }

    /// Advance to the next scheduling event: pick the earliest event
    /// time, move the fluid state there, fire the enabled transitions and
    /// re-run the policy.
    pub fn step(&mut self) -> Result<StepStatus, SimError> {
        Ok(match self.next_event(Time::INFINITY)? {
            None => StepStatus::Advanced,
            Some(RunStatus::Finished) => StepStatus::Finished,
            Some(RunStatus::Idle) => StepStatus::Idle,
            Some(RunStatus::Blocked(_)) => unreachable!("no event lies past an infinite bound"),
        })
    }

    /// The one event decision behind [`Simulation::step`] and
    /// [`Simulation::run_until`]: scan every event source once, then
    /// either stop — finished, idle, or blocked past `bound` — or consume
    /// one event and execute it (`None`). A stop consumes no event and
    /// leaves the clock where it was.
    fn next_event(&mut self, bound: Time) -> Result<Option<RunStatus>, SimError> {
        if self.is_finished() {
            return Ok(Some(RunStatus::Finished));
        }
        let t_next = self.peek_next_event();
        if !t_next.is_finite() {
            if self.admission_open() && self.live() == 0 {
                // Nothing in the system and admission still open: the
                // engine is waiting for an external offer. An idle poll
                // consumes nothing, so the event count stays bit-identical
                // to a run where the poll never happened.
                return Ok(Some(RunStatus::Idle));
            }
            // Applications remain but nothing can ever happen again. A
            // horizon must not convert this diagnostic into
            // plausible-looking idle time.
            return Err(SimError::PolicyStalledSystem {
                policy: self.policy.name(),
                at: self.now.as_secs(),
            });
        }
        if t_next.approx_gt(bound) {
            return Ok(Some(RunStatus::Blocked(t_next)));
        }
        self.events += 1;
        if self.events > self.config.max_events {
            return Err(SimError::EventLimitExceeded {
                limit: self.config.max_events,
            });
        }
        // The horizon halts the run before the next event would land
        // past it: advance the fluid state to exactly the horizon (so
        // the windowed integrals cover it) and stop. No transition is
        // due in `(now, horizon]`, so there is nothing to settle — in
        // particular no predicted completion (they are all `> horizon`
        // here) and no re-allocation. The approx tolerance of the event
        // guard means a just-past-horizon event may already have put
        // `now` a hair beyond `h`; the clock never moves backwards (a
        // regressing clock would emit a negative-length telemetry
        // sample and a trace segment with `end < start`).
        if let Some(h) = self.config.horizon {
            if t_next.approx_gt(h) {
                let h = h.max(self.now);
                self.advance_to(h, false);
                self.now = h;
                self.close_interval();
                self.halted = true;
                return Ok(None);
            }
        }
        // Decision trace: attribute the step to a policy-scheduled
        // wakeup when that is what won the event scan (the candidate
        // was cached by `peek_next_event`, so this costs no extra
        // policy call). Bit-compare — the trace must not blur
        // coincident events into wakeups.
        if self.dtrace.is_some() && self.wakeup_candidate.get().to_bits() == t_next.get().to_bits()
        {
            self.trace_push(TraceEvent::PolicyWakeup {
                t: t_next.as_secs(),
            });
        }

        // --- Advance the fluid state to t_next. -----------------------
        self.advance_to(t_next, true);
        self.now = t_next;
        self.close_interval();

        // --- State transitions and re-allocation. ---------------------
        self.settle_transitions()?;
        self.allocate()?;
        Ok(None)
    }

    /// Drive [`Simulation::step`] until every application finished (or
    /// the horizon halts the run) and assemble the outcome.
    pub fn run_to_completion(mut self) -> Result<SimOutcome, SimError> {
        while !self.is_finished() {
            if self.step()? == StepStatus::Idle {
                // Waiting forever on offers that cannot come — the
                // caller forgot to close admission.
                return Err(SimError::InvalidScenario(
                    "open admission was never closed; call close_admission \
                     before running to completion"
                        .into(),
                ));
            }
        }
        if self.finished == 0 {
            // Only a horizon can halt a run before anything finished;
            // objectives over zero applications are undefined.
            return Err(SimError::InvalidScenario(format!(
                "horizon {} ended the run before any application finished",
                self.config.horizon.unwrap_or(self.now)
            )));
        }
        Ok(self.into_outcome())
    }

    /// Consume the engine and assemble the objective report for the work
    /// completed so far (normally called once [`Simulation::is_finished`];
    /// applications still in flight — possible only under a horizon —
    /// are reported through the steady summary's `left_in_system`).
    ///
    /// # Panics
    /// Panics when no application finished yet.
    #[must_use]
    pub fn into_outcome(self) -> SimOutcome {
        let telemetry = self
            .config
            .telemetry
            .then(|| self.telemetry.summary())
            .flatten();
        // `admitted` counts only applications released into the system:
        // arrivals a horizon left on the queue never inflate
        // `left_in_system`.
        let steady = self
            .steady
            .as_ref()
            .map(|acc| acc.summary(self.admitted, self.finished));
        let (report, per_app_bytes) = if self.config.per_app_detail {
            let mut retired = self.retired;
            retired.sort_by_key(|(o, _)| o.id);
            let per_app_bytes = retired.iter().map(|(o, b)| (o.id, *b)).collect();
            let per_app: Vec<AppOutcome> = retired.into_iter().map(|(o, _)| o).collect();
            assert!(!per_app.is_empty(), "engine only collects finished runs");
            (ObjectiveReport::from_outcomes(per_app), per_app_bytes)
        } else {
            (self.agg.report(Vec::new()), Vec::new())
        };
        SimOutcome {
            report,
            trace: self.trace,
            events: self.events,
            end_time: self.now,
            per_app_bytes,
            telemetry,
            steady,
            decision_trace: self.dtrace,
        }
    }

    /// Attach a bounded decision trace keeping the last `capacity`
    /// scheduling events (admissions, grant sets, capacity-screen
    /// fallbacks, retirements, policy wakeups — plus whatever the
    /// embedding layer pushes through [`Simulation::trace_event`], e.g.
    /// the daemon's journal flushes). Observation-only: results are
    /// bit-identical with the trace on or off (pinned in
    /// `tests/obs_identity.rs`). Idempotent per attach — calling again
    /// replaces the trace.
    pub fn enable_decision_trace(&mut self, capacity: usize) {
        self.dtrace = Some(Box::new(DecisionTrace::new(capacity)));
    }

    /// The attached decision trace, if any.
    #[must_use]
    pub fn decision_trace(&self) -> Option<&DecisionTrace> {
        self.dtrace.as_deref()
    }

    /// Record an externally observed event into the attached trace
    /// (no-op without one). The daemon uses this to interleave journal
    /// flushes with the engine's own decisions.
    pub fn trace_event(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.dtrace {
            t.push(event);
        }
    }

    /// Outlined trace push: the hot paths branch on `is_some` and only
    /// then pay the call.
    #[cold]
    #[inline(never)]
    fn trace_push(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.dtrace {
            t.push(event);
        }
    }

    /// Decay the transferring volumes (and the burst-buffer level) from
    /// `self.now` to `t_next` at the installed constant rates — one
    /// fused pass over the predicted set, which is exactly the pending
    /// slots with a positive effective rate (zero-rate transfers
    /// neither decay nor complete, and every pending slot entered with
    /// a positive residue). With `collect`, winners — predicted
    /// completions at or before `t_next` — have their residues zeroed
    /// exactly, and they land (together with any residue the decay
    /// itself rounded to zero) in `completed`, in `AppId` order
    /// inherited from the predicted scan, for the settle pass. The
    /// horizon path advances without collecting: every predicted
    /// completion lies past the horizon, and the approx-tolerant
    /// winner check must not zero a transfer the pre-horizon halt will
    /// never settle.
    fn advance_to(&mut self, t_next: Time, collect: bool) {
        let dt = (t_next - self.now).max(Time::ZERO);
        let decay = dt.get() > 0.0;
        if collect {
            self.completed.clear();
        }
        for &(i, done) in &self.predicted {
            let mut due = false;
            if decay {
                let remaining = self.hot.remaining[i];
                let moved = self.hot.effective[i] * dt;
                let new_remaining = (remaining - moved).max(Bytes::ZERO);
                self.hot.bytes_moved[i] += moved.min(remaining);
                self.hot.started[i] = true;
                self.hot.remaining[i] = new_remaining;
                due = new_remaining.is_zero();
            }
            if collect {
                if done.approx_le(t_next) {
                    // Zero the winner's residue exactly.
                    self.hot.remaining[i] = Bytes::ZERO;
                    due = true;
                }
                if due {
                    self.completed.push(i);
                }
            }
        }
        if let Some(b) = &mut self.bb {
            b.advance(dt, self.inflow, self.drain_bw);
        }
    }

    /// The pending set is ordered by `AppId` (stable under roster
    /// permutation and slot reuse); slots are only the access path. These
    /// two are the one place its membership changes, and they mirror
    /// each change into the policy snapshot at the same position.
    fn pending_insert(&mut self, i: usize) {
        if let Some(pos) = self.pending.insert(self.hot.id[i], i) {
            self.snapshot.insert(pos, self.snapshot_entry(i));
            self.predicted_dirty = true;
        }
    }

    fn pending_remove(&mut self, i: usize) {
        if let Some(pos) = self.pending.remove(self.hot.id[i]) {
            self.snapshot.remove(pos);
            self.predicted_dirty = true;
        }
    }

    /// The snapshot entry of slot `i` as its application enters `Io`:
    /// `max_bw` is clamped to the capacity of the last refresh (the next
    /// one re-clamps every entry if the capacity moved), and the progress
    /// keys are NaN until the next refresh computes them — for good,
    /// when the policy reads none.
    fn snapshot_entry(&self, i: usize) -> AppState {
        AppState {
            id: self.hot.id[i],
            procs: self.hot.procs[i],
            dilation_ratio: f64::NAN,
            syseff_key: f64::NAN,
            last_io_end: self.hot.last_io_end[i],
            io_requested_at: self.hot.io_requested_at[i],
            started_io: self.hot.started[i],
            max_bw: self.hot.card[i].min(self.snapshot_capacity),
        }
    }

    /// Fire every transition enabled at `self.now`. Transitions are
    /// per-application (they depend only on that application's state and
    /// the clock), so each source is drained once — no global fixpoint
    /// loop over all applications:
    ///
    /// * due arrivals are admitted off the front of the queue,
    /// * due compute completions pop off the compute heap,
    /// * pending applications whose residual volume reached zero complete
    ///   their instance (and may chain through zero-work/zero-volume
    ///   instances within [`Simulation::settle_app`]).
    ///
    /// Only the feeder refill can fail (a malformed stream arrival).
    fn settle_transitions(&mut self) -> Result<(), SimError> {
        while self
            .admission
            .queue
            .front()
            .is_some_and(|app| app.release().approx_le(self.now))
        {
            let app = self.admission.queue.pop_front().expect("checked above");
            self.admit(app);
            self.refill()?;
        }
        while self
            .compute
            .peek()
            .is_some_and(|ev| ev.at.approx_le(self.now))
        {
            let i = self.compute.pop().expect("checked above").idx;
            let rt = &self.rts[i];
            let inst = rt.spec.instance(rt.instance);
            self.hot.io_requested_at[i] = self.now;
            self.hot.tag[i] = PhaseTag::Io;
            self.hot.remaining[i] = inst.vol;
            self.hot.started[i] = false;
            self.pending_insert(i);
            self.settle_app(i);
        }
        // Transfers whose residue reached zero in the advance to this
        // event, collected in `AppId` order — every other pending slot
        // still has a positive residue and nothing to settle. (Slots
        // admitted or unblocked above settled themselves on entry, and
        // recycling can't touch these: a collected slot is still live
        // until its own `settle_app` below retires it.)
        for k in 0..self.completed.len() {
            let i = self.completed[k];
            self.settle_app(i);
        }
        self.completed.clear();
        Ok(())
    }

    /// Admit one due arrival (validated when it entered the queue):
    /// install it into a recycled or fresh slot and start its first
    /// instance.
    fn admit(&mut self, app: AppSpec) {
        let release = app.release().max(Time::ZERO);
        let rt = AppRuntime::new(app, self.platform);
        let slot = match self.free.pop() {
            // Recycling drops the retired runtime held there — this is
            // what keeps the arena at peak-concurrency size.
            Some(slot) => {
                self.rts[slot] = rt;
                self.hot.reset_slot(slot, &self.rts[slot], self.platform);
                slot
            }
            None => {
                self.rts.push(rt);
                let slot = self.rts.len() - 1;
                let hot_slot = self.hot.push_app(&self.rts[slot], self.platform);
                debug_assert_eq!(slot, hot_slot, "hot state parallel to the arena");
                slot
            }
        };
        self.admitted += 1;
        self.begin_instance(slot, release);
    }

    /// Start application `i`'s current instance at `at` and register it
    /// with the matching event source.
    fn begin_instance(&mut self, i: usize, at: Time) {
        if self.dtrace.is_some() {
            self.trace_push(TraceEvent::Admission {
                id: self.rts[i].spec.id().0 as u64,
                t: at.as_secs(),
                release: self.rts[i].spec.release().as_secs(),
            });
        }
        self.hot.start_instance(i, &self.rts[i], at);
        match self.hot.tag[i] {
            PhaseTag::Computing => self.compute.push(ComputeEvent {
                at: self.hot.done_at[i],
                id: self.hot.id[i],
                idx: i,
            }),
            PhaseTag::Io => {
                self.pending_insert(i);
                self.settle_app(i);
            }
            _ => unreachable!("start_instance enters Computing or Io"),
        }
    }

    /// Chain through instance completions of one pending application:
    /// a zero residual volume completes the instance, and the next
    /// instance may immediately complete again (zero work and zero
    /// volume), finish — and retire — the application, or hand it to the
    /// compute heap.
    fn settle_app(&mut self, i: usize) {
        loop {
            if self.hot.tag[i] != PhaseTag::Io || !self.hot.remaining[i].is_zero() {
                return;
            }
            // The completion invalidates this application's predicted
            // entry even when it stays pending (zero-work chaining).
            self.predicted_dirty = true;
            let rt = &mut self.rts[i];
            rt.progress.complete_instance();
            rt.instance += 1;
            self.hot.last_io_end[i] = self.now;
            self.hot.rate[i] = Bw::ZERO;
            self.hot.effective[i] = Bw::ZERO;
            if rt.instance == rt.spec.instance_count() {
                rt.progress.finish(self.now);
                self.hot.tag[i] = PhaseTag::Finished;
                self.finished += 1;
                self.pending_remove(i);
                self.retire(i);
                return;
            }
            self.hot.refresh_keys(i, &rt.progress);
            self.hot.start_instance(i, &self.rts[i], self.now);
            if self.hot.tag[i] == PhaseTag::Computing {
                self.compute.push(ComputeEvent {
                    at: self.hot.done_at[i],
                    id: self.hot.id[i],
                    idx: i,
                });
                self.pending_remove(i);
                return;
            }
            // Zero-work instance: straight back to Io, still pending, so
            // its snapshot entry takes the new instance's I/O instants.
            // Loop to catch a zero-volume transfer completing instantly.
            let k = self
                .pending
                .position(self.hot.id[i])
                .expect("an application settling its I/O is pending");
            let entry = &mut self.snapshot.states_mut()[k];
            entry.last_io_end = self.hot.last_io_end[i];
            entry.io_requested_at = self.hot.io_requested_at[i];
        }
    }

    /// Compact a just-finished application out of its slot: its objective
    /// contribution is extracted now (a handful of scalars), and the slot
    /// goes back on the free list for the next admission to recycle —
    /// peak memory tracks concurrency, not the total application count.
    fn retire(&mut self, i: usize) {
        let rt = &self.rts[i];
        let d = self.now;
        let outcome = AppOutcome {
            id: rt.spec.id(),
            procs: rt.spec.procs(),
            release: rt.spec.release(),
            finish: d,
            rho: rt.progress.rho(d),
            rho_tilde: rt.progress.rho_tilde(d),
        };
        if let Some(steady) = &mut self.steady {
            steady.record_finish(&outcome);
        }
        if self.config.per_app_detail {
            self.retired.push((outcome, self.hot.bytes_moved[i]));
        } else {
            self.agg.fold(&outcome);
        }
        self.free.push(i);
        if self.dtrace.is_some() {
            self.trace_push(TraceEvent::Retirement {
                id: self.rts[i].spec.id().0 as u64,
                t: d.as_secs(),
            });
        }
    }

    /// Re-run the policy and install the granted/effective rates; records
    /// the effective PFS drain bandwidth for the burst buffer (equal to
    /// `B` when no buffer is in use).
    fn allocate(&mut self) -> Result<(), SimError> {
        let now = self.now;
        // Communication traffic (§7 extension) shrinks the shared pipe.
        let load_factor = self
            .config
            .external_load
            .as_ref()
            .map_or(1.0, |l| l.capacity_factor(now));
        let capacity = match &self.bb {
            Some(b) => b.ingest_capacity(self.platform.total_bw),
            None => self.platform.total_bw * load_factor,
        };
        if self.pending.is_empty() {
            // Nothing is ingesting, but a burst buffer may still be
            // draining the interleaved data of earlier writers — that
            // drain contends on the disk tier exactly like the live
            // streams did (the Fig. 1 effect does not evaporate when the
            // writers go idle).
            self.drain_bw = match &mut self.bb {
                Some(b) => {
                    self.platform.total_bw * self.platform.interference.factor(b.note_streams(0))
                }
                None => self.platform.total_bw,
            };
            self.inflow = Bw::ZERO;
            self.tel_open = TelemetrySample::idle(now, capacity);
            // Every application granted last time left the pending set,
            // and settling zeroed its rates on the way out.
            self.granted.clear();
            return Ok(());
        }
        // Refresh the kept snapshot: only the fields time or capacity can
        // have moved since the last allocation, with the same operations
        // on the same operands as a whole rebuild, so the same bits.
        let clamp = capacity.get().to_bits() != self.snapshot_capacity.get().to_bits();
        self.snapshot_capacity = capacity;
        let mut offered = Bw::ZERO;
        let mut backlog = Bytes::ZERO;
        let states = self.snapshot.states_mut();
        for (state, &(_, i)) in states.iter_mut().zip(self.pending.entries()) {
            debug_assert_eq!(self.hot.tag[i], PhaseTag::Io, "pending slots are in Io");
            backlog += self.hot.remaining[i];
            // Telemetry offered load is the *raw* card limit `β·b` —
            // under a deep storm the capacity-clamped `max_bw` handed to
            // the policy would collapse contention to the pending count,
            // under-reporting demand exactly when congestion is deepest.
            let card = self.hot.card[i];
            offered += card;
            if clamp {
                state.max_bw = card.min(capacity);
            }
            state.started_io = self.hot.started[i];
            if self.keys {
                // ρ̃ and the derived keys, rebuilt from the cached prefix
                // sums with the same operations on the same values as
                // the `AppProgress` methods — bit-identical, off flat
                // arrays. ρ's division is hoisted to the key refresh
                // (`key_rho`).
                let elapsed = now - self.hot.release[i];
                let rho = self.hot.key_rho[i];
                let rho_tilde = if elapsed.get() <= EPS {
                    rho
                } else {
                    self.hot.key_work_done[i] / elapsed
                };
                state.dilation_ratio = if rho <= 0.0 {
                    1.0
                } else {
                    (rho_tilde / rho).min(1.0)
                };
                state.syseff_key = state.procs as f64 * rho_tilde;
            }
        }
        #[cfg(debug_assertions)]
        self.debug_check_snapshot(capacity);
        // The signal reflects the last *closed* interval — the policy
        // observes the past, never the allocation it is about to make.
        let ctx = self
            .snapshot
            .context_with_signal(now, capacity, self.telemetry.signal());
        // The policy writes its grants into the reused workspace, through
        // `allocate_into`, the one place every policy decides.
        self.policy.allocate_into(&ctx, &mut self.scratch);
        let grants = &self.scratch.alloc.grants;
        let active = grants.iter().filter(|(_, b)| b.get() > 0.0).count();
        // Disk-locality interference: `n` uncoordinated streams degrade the
        // disk-backed tier's delivered bandwidth (Fig. 1). Without a burst
        // buffer the penalty hits the application rates directly. With one,
        // the SSD absorb tier itself is penalty-free (§3.1: "solid-state
        // drives do not present the problem"), but the buffered data of `n`
        // applications interleaves, so the PFS *drain* — and, under
        // back-pressure once the buffer is full, the ingest too — runs at
        // `B·factor(n)`. This is why "burst buffers cannot prevent congestion
        // at all times" (§1): the penalty merely hides until the buffer fills.
        let contended = self.platform.interference.factor(active);
        let ingest_factor = match &self.bb {
            Some(b) if !b.is_throttled() => 1.0,
            _ => contended,
        };
        // The apply walk visits only the grants, never the whole pending
        // set: a pending application outside the last grant list already
        // has rate and effective at zero (the invariant on `granted`), and
        // installing another zero there would change no bit — not the
        // rates, not the change detector below, and not the totals, since
        // adding `+0.0` to a sum that is never `-0.0` leaves it as it is.
        //
        // First the applications that lost their grant: one merge walk
        // over the previous and the new list, both in `AppId` order.
        // Slots are recycled, so an entry whose slot now holds another
        // application is skipped (the newcomer started at zero).
        let mut gi = 0;
        for &(id, i) in &self.granted {
            while gi < grants.len() && grants[gi].0 < id {
                gi += 1;
            }
            let kept = grants.get(gi).is_some_and(|&(g, _)| g == id);
            if kept || self.hot.id[i] != id {
                continue;
            }
            if self.hot.effective[i].get().to_bits() != 0 {
                self.predicted_dirty = true;
            }
            self.hot.rate[i] = Bw::ZERO;
            self.hot.effective[i] = Bw::ZERO;
        }
        // Then the new grants. Each one finds its pending entry by binary
        // search, which gives the slot and the snapshot entry whose
        // `max_bw` the screen compares against. The walk doubles as the
        // change detector for the predicted-completion cache, the
        // telemetry aggregation pass, *and* the §2.1 capacity screen: the
        // exact comparisons below over-approximate
        // [`Allocation::validate`] (`approx_gt` implies `>`), and any hit
        // drops to the cold path where `validate` produces its canonical
        // first-violation message. A grant for a non-pending application,
        // and any step that is not strictly `AppId`-ascending (a
        // duplicate, or two grants out of order), trips the screen.
        let states = ctx.pending;
        let entries = self.pending.entries();
        let mut last: Option<AppId> = None;
        let mut suspect = false;
        let mut total_granted = Bw::ZERO;
        let mut total_delivered = Bw::ZERO;
        // Fused predicted-completion rebuild: the walk sees exactly the
        // values the next event scan would (the clock and the residues
        // only move *after* that scan), so building the predictions here
        // and committing them iff the step ends dirty is bit-identical to
        // rebuilding lazily — minus one full pass per event. Ungranted
        // applications predict nothing, so the grants in `AppId` order
        // give the scan's entries in the scan's order. On the rare clean
        // step the speculative buffer is simply dropped.
        self.predicted_next.clear();
        let mut pmin_next = Time::INFINITY;
        self.granted.clear();
        for &(id, bw) in grants {
            let Ok(k) = entries.binary_search_by_key(&id, |&(pid, _)| pid) else {
                suspect = true;
                continue;
            };
            suspect |= last >= Some(id)
                || !bw.is_finite()
                || bw.get() < 0.0
                || bw.get() > states[k].max_bw.get();
            last = Some(id);
            let i = entries[k].1;
            let effective = bw * ingest_factor;
            if self.hot.effective[i].get().to_bits() != effective.get().to_bits() {
                self.predicted_dirty = true;
            }
            self.hot.rate[i] = bw;
            self.hot.effective[i] = effective;
            total_granted += bw;
            total_delivered += effective;
            if effective.get() > 0.0 {
                let done = now + self.hot.remaining[i] / effective;
                self.predicted_next.push((i, done));
                pmin_next = pmin_next.min(done);
            }
            self.granted.push((id, i));
        }
        if self.predicted_dirty {
            std::mem::swap(&mut self.predicted, &mut self.predicted_next);
            self.predicted_min = pmin_next;
            self.predicted_dirty = false;
        }
        if total_granted.get() > ctx.total_bw.get() {
            suspect = true;
        }
        if suspect {
            // Direct field access instead of `trace_push`: `ctx` still
            // borrows the snapshot arena, so a whole-`self` method call
            // is off the table here.
            if let Some(tr) = &mut self.dtrace {
                tr.push(TraceEvent::CapacityScreen {
                    t: now.as_secs(),
                    policy: self.policy.name(),
                });
            }
            // Cold path: a screen tripped, but only the tolerance-aware
            // check decides (an overshoot within EPS is permitted, exactly
            // as before). The rates already installed above are moot on
            // the error path — a failed allocation aborts the run.
            self.scratch
                .alloc
                .validate(&ctx)
                .map_err(|detail| SimError::InvalidAllocation {
                    policy: self.policy.name(),
                    detail,
                })?;
        }
        #[cfg(debug_assertions)]
        self.debug_check_ungranted();
        // A policy that schedules its own wakeups (a timetable) may stall
        // everyone between reservation windows; an event-driven policy that
        // grants nothing would livelock the system.
        if total_granted.is_zero() && capacity.get() > 0.0 && self.policy.next_wakeup(now).is_none()
        {
            return Err(SimError::PolicyStalledSystem {
                policy: self.policy.name(),
                at: now.as_secs(),
            });
        }
        self.drain_bw = match &mut self.bb {
            Some(b) => {
                let streams = b.note_streams(active);
                self.platform.total_bw * self.platform.interference.factor(streams)
            }
            None => self.platform.total_bw,
        };
        self.inflow = total_delivered;
        // Open the telemetry interval these rates govern (closed at the
        // next event).
        self.tel_open = TelemetrySample {
            start: now,
            end: now,
            offered,
            granted: total_granted,
            delivered: total_delivered,
            capacity,
            backlog,
            pending: self.pending.len(),
        };
        if let Some(tr) = &mut self.dtrace {
            tr.push(TraceEvent::Grant {
                t: now.as_secs(),
                pending: self.pending.len() as u64,
                granted: active as u64,
                total_bw: total_granted.get(),
                capacity: capacity.get(),
            });
        }
        Ok(())
    }

    /// Close the interval the last allocation opened, at `self.now` (the
    /// installed rates were constant across it — the fluid model). The
    /// open [`TelemetrySample`] is the interval's one record: the
    /// telemetry tap, the steady-state window and the trace segment are
    /// all fed from it.
    ///
    /// The segment's grants are read straight off the grant list: no
    /// rate is written between an allocation and the close of its
    /// interval (the advance moves only residues, an offer only queues,
    /// and admissions and settles run after the close), so `granted` and
    /// the hot rates still hold what the allocation installed. Only
    /// positive rates enter the segment, in `AppId` order.
    fn close_interval(&mut self) {
        self.tel_open.end = self.now;
        let closed = self.tel_open;
        self.telemetry.record(closed);
        if let Some(steady) = &mut self.steady {
            steady.record_interval(&closed);
        }
        if let Some(t) = &mut self.trace {
            let positive = self
                .granted
                .iter()
                .filter(|&&(_, i)| self.hot.rate[i].get() > 0.0);
            t.push(TraceSegment {
                start: closed.start,
                end: closed.end,
                capacity: closed.capacity,
                grants: positive
                    .clone()
                    .map(|&(id, i)| (id, self.hot.rate[i]))
                    .collect(),
                effective: positive
                    .map(|&(id, i)| (id, self.hot.effective[i]))
                    .collect(),
            });
        }
    }

    /// Debug builds check the kept snapshot after every refresh against
    /// a whole rebuild from the hot columns (the per-event rebuild the
    /// snapshot replaced), bit for bit: same applications in strictly
    /// ascending `AppId` order, and every field equal — the progress keys
    /// only when the policy reads them.
    #[cfg(debug_assertions)]
    fn debug_check_snapshot(&self, capacity: Bw) {
        let states = self.snapshot.states();
        assert_eq!(states.len(), self.pending.len(), "snapshot out of step");
        assert!(
            states.windows(2).all(|w| w[0].id < w[1].id),
            "snapshot ids not strictly ascending"
        );
        for (state, &(id, i)) in states.iter().zip(self.pending.entries()) {
            let elapsed = self.now - self.hot.release[i];
            let rho = self.hot.key_rho[i];
            let rho_tilde = if elapsed.get() <= EPS {
                rho
            } else {
                self.hot.key_work_done[i] / elapsed
            };
            let dilation_ratio = if rho <= 0.0 {
                1.0
            } else {
                (rho_tilde / rho).min(1.0)
            };
            let rebuilt = AppState {
                id,
                procs: self.hot.procs[i],
                dilation_ratio,
                syseff_key: self.hot.procs[i] as f64 * rho_tilde,
                last_io_end: self.hot.last_io_end[i],
                io_requested_at: self.hot.io_requested_at[i],
                started_io: self.hot.started[i],
                max_bw: self.hot.card[i].min(capacity),
            };
            let bits = |a: &AppState| {
                (
                    a.last_io_end.get().to_bits(),
                    a.io_requested_at.get().to_bits(),
                    a.max_bw.get().to_bits(),
                )
            };
            assert!(
                state.id == rebuilt.id
                    && state.procs == rebuilt.procs
                    && state.started_io == rebuilt.started_io
                    && bits(state) == bits(&rebuilt),
                "stale snapshot entry {state:?}, rebuilt {rebuilt:?}"
            );
            if self.keys {
                assert!(
                    state.dilation_ratio.to_bits() == rebuilt.dilation_ratio.to_bits()
                        && state.syseff_key.to_bits() == rebuilt.syseff_key.to_bits(),
                    "stale progress keys {state:?}, rebuilt {rebuilt:?}"
                );
            }
        }
    }

    /// Debug builds check the invariant on `granted` after every
    /// allocation: each pending slot outside the grant list holds
    /// `rate = effective = +0.0`.
    #[cfg(debug_assertions)]
    fn debug_check_ungranted(&self) {
        let mut g = self.granted.iter().peekable();
        for &(id, i) in self.pending.entries() {
            if g.next_if(|&&(gid, _)| gid == id).is_some() {
                continue;
            }
            assert!(
                self.hot.rate[i].get().to_bits() == 0 && self.hot.effective[i].get().to_bits() == 0,
                "ungranted pending {id} holds rate {} / effective {}",
                self.hot.rate[i],
                self.hot.effective[i]
            );
        }
    }
}

/// Run `policy` over `apps` on `platform` until every application
/// completes; returns the objective report (and optional trace).
///
/// One-shot wrapper over the [`Simulation`] lifecycle.
pub fn simulate(
    platform: &Platform,
    apps: &[AppSpec],
    policy: &mut dyn OnlinePolicy,
    config: &SimConfig,
) -> Result<SimOutcome, SimError> {
    Simulation::new(platform, apps, policy, config)?.run_to_completion()
}

/// Run `policy` over a lazy, release-sorted application stream —
/// the open-system one-shot wrapper over [`Simulation::from_stream`].
/// Peak memory tracks the stream's *concurrency*, never its length.
pub fn simulate_stream<'a>(
    platform: &'a Platform,
    source: impl Iterator<Item = AppSpec> + 'a,
    policy: &'a mut dyn OnlinePolicy,
    config: &'a SimConfig,
) -> Result<SimOutcome, SimError> {
    Simulation::from_stream(platform, source, policy, config)?.run_to_completion()
}

/// Run `policy` over a *materialized* open-system roster (release-sorted,
/// per-application feasibility instead of the closed `Σβ ≤ N` budget) —
/// the campaign layer's entry point for stream workloads whose roster a
/// seed block already shares across the policy axis.
pub fn simulate_open(
    platform: &Platform,
    apps: &[AppSpec],
    policy: &mut dyn OnlinePolicy,
    config: &SimConfig,
) -> Result<SimOutcome, SimError> {
    validate_open_scenario(platform, apps).map_err(|e| SimError::InvalidScenario(e.to_string()))?;
    Simulation::from_stream(platform, apps.iter().cloned(), policy, config)?.run_to_completion()
}
#[cfg(test)]
mod tests {
    use super::*;
    use iosched_core::heuristics::{MaxSysEff, MinDilation, RoundRobin};
    use iosched_core::policy::SchedContext;
    use iosched_model::{AppId, Bytes};

    fn platform() -> Platform {
        Platform::new("t", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0))
    }

    /// w = 8 s, vol = 20 GiB on 100 procs: dedicated span 10 s/instance.
    fn app(id: usize, instances: usize) -> AppSpec {
        AppSpec::periodic(
            id,
            Time::ZERO,
            100,
            Time::secs(8.0),
            Bytes::gib(20.0),
            instances,
        )
    }

    #[test]
    fn single_app_runs_at_dedicated_speed() {
        let p = platform();
        let out = simulate(&p, &[app(0, 3)], &mut RoundRobin, &SimConfig::traced()).unwrap();
        let o = out.report.app(AppId(0)).unwrap();
        assert!(o.finish.approx_eq(Time::secs(30.0)), "finish {}", o.finish);
        assert!((o.rho_tilde - 0.8).abs() < 1e-9);
        assert!((out.report.dilation - 1.0).abs() < 1e-9);
        // Conservation: the trace delivered exactly 60 GiB.
        let trace = out.trace.as_ref().unwrap();
        assert!(trace.delivered(AppId(0)).approx_eq(Bytes::gib(60.0)));
        trace.validate(&p, &|_| Some(100)).unwrap();
    }

    #[test]
    fn two_apps_contend_and_someone_waits() {
        let p = platform();
        let out = simulate(
            &p,
            &[app(0, 2), app(1, 2)],
            &mut MinDilation,
            &SimConfig::default(),
        )
        .unwrap();
        // Both need the full PFS for their transfers; total I/O work is
        // 80 GiB = 8 s of PFS time, computes overlap. Last finish ≥ 8+8+2+2.
        let makespan = out.report.makespan();
        assert!(
            makespan.approx_ge(Time::secs(22.0)),
            "makespan {makespan} too small"
        );
        assert!(out.report.dilation > 1.0);
        // Work conserved for both apps.
        for id in [AppId(0), AppId(1)] {
            let bytes = out.bytes_of(id).unwrap();
            assert!(bytes.approx_eq(Bytes::gib(40.0)), "{id}: {bytes}");
        }
    }

    #[test]
    fn release_times_are_respected() {
        let p = platform();
        let mut late = app(1, 1);
        late.set_release(Time::secs(100.0));
        let out = simulate(
            &p,
            &[app(0, 1), late],
            &mut RoundRobin,
            &SimConfig::default(),
        )
        .unwrap();
        let o = out.report.app(AppId(1)).unwrap();
        assert!(o.finish.approx_ge(Time::secs(110.0)));
        assert!((o.rho_tilde - 0.8).abs() < 1e-9, "late app ran dedicated");
    }

    /// Releases and compute completions far past any realistic clock
    /// (`1e22` s, `1e308` s) are ordinary events: each such run must
    /// terminate, alone and together.
    #[test]
    fn far_future_releases_terminate() {
        let p = platform();
        for releases in [&[1e22][..], &[1e308], &[1e22, 1e308]] {
            let apps: Vec<AppSpec> = releases
                .iter()
                .enumerate()
                .map(|(id, &release)| {
                    let mut a = app(id, 1);
                    a.set_release(Time::secs(release));
                    a
                })
                .collect();
            let out = simulate(&p, &apps, &mut RoundRobin, &SimConfig::default()).unwrap();
            for (spec, &release) in apps.iter().zip(releases) {
                let o = out.report.app(spec.id()).unwrap();
                assert!(o.finish.as_secs() >= release, "{}: {}", spec.id(), o.finish);
            }
        }
    }

    #[test]
    fn zero_work_and_zero_vol_instances() {
        let p = platform();
        use iosched_model::{Instance, InstancePattern};
        let spec = AppSpec::new(
            0,
            Time::ZERO,
            100,
            InstancePattern::Explicit(vec![
                Instance::new(Time::ZERO, Bytes::gib(10.0)), // pure I/O
                Instance::new(Time::secs(5.0), Bytes::ZERO), // pure compute
                Instance::new(Time::secs(1.0), Bytes::gib(10.0)),
            ]),
        );
        let out = simulate(&p, &[spec], &mut MaxSysEff, &SimConfig::default()).unwrap();
        let o = out.report.app(AppId(0)).unwrap();
        // 1 + 5 + 1 + 1 = 8 s total.
        assert!(o.finish.approx_eq(Time::secs(8.0)), "finish {}", o.finish);
        assert!((out.report.dilation - 1.0).abs() < 1e-9);
    }

    /// Two applications of two zero-work transfers each, on a PFS that
    /// serves one at a time. A finished transfer moves its application's
    /// `last_io_end` and `io_requested_at` while it stays pending, so
    /// RoundRobin and FCFS hand the next turn to the other application:
    /// application 0 finishes at 3 s, not at 2 s.
    #[test]
    fn zero_work_chains_refresh_the_io_instants_policies_rank_by() {
        use iosched_core::baselines::Fcfs;
        use iosched_model::{Instance, InstancePattern};
        let p = platform();
        let chain = |id| {
            AppSpec::new(
                id,
                Time::ZERO,
                100,
                InstancePattern::Explicit(vec![Instance::new(Time::ZERO, Bytes::gib(10.0)); 2]),
            )
        };
        let apps = [chain(0), chain(1)];
        let policies: [&mut dyn OnlinePolicy; 2] = [&mut RoundRobin, &mut Fcfs];
        for policy in policies {
            let name = policy.name();
            let out = simulate(&p, &apps, policy, &SimConfig::default()).unwrap();
            let finish = |id| out.report.app(AppId(id)).unwrap().finish;
            assert!(
                finish(0).approx_eq(Time::secs(3.0)),
                "{name}: {}",
                finish(0)
            );
            assert!(
                finish(1).approx_eq(Time::secs(4.0)),
                "{name}: {}",
                finish(1)
            );
        }
    }

    #[test]
    fn burst_buffer_requires_spec() {
        let p = platform();
        let err = simulate(
            &p,
            &[app(0, 1)],
            &mut RoundRobin,
            &SimConfig::with_burst_buffer(),
        );
        assert!(matches!(err, Err(SimError::InvalidScenario(_))));
    }

    #[test]
    fn burst_buffer_absorbs_bursts_faster() {
        let p = platform().with_default_burst_buffer();
        let apps = [app(0, 2), app(1, 2), app(2, 2)];
        let without = simulate(&p, &apps, &mut RoundRobin, &SimConfig::default()).unwrap();
        let with = simulate(&p, &apps, &mut RoundRobin, &SimConfig::with_burst_buffer()).unwrap();
        assert!(
            with.report.sys_efficiency >= without.report.sys_efficiency - 1e-9,
            "BB must not hurt: {} vs {}",
            with.report.sys_efficiency,
            without.report.sys_efficiency
        );
        assert!(with.report.makespan().approx_le(without.report.makespan()));
    }

    #[test]
    fn interference_slows_fair_sharing_policies_less_serialized_ones() {
        use iosched_model::Interference;
        let p = platform().with_interference(Interference::default_penalty());
        // Heuristics serialize (one app at a time at 10 GiB/s) → factor 1.
        let out = simulate(
            &p,
            &[app(0, 2), app(1, 2)],
            &mut MinDilation,
            &SimConfig::default(),
        )
        .unwrap();
        let clean = simulate(
            &platform(),
            &[app(0, 2), app(1, 2)],
            &mut MinDilation,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(
            (out.report.sys_efficiency - clean.report.sys_efficiency).abs() < 1e-9,
            "serializing policy unaffected by locality penalty"
        );
    }

    #[test]
    fn invalid_scenario_is_rejected() {
        let p = platform();
        // 600 + 600 procs > 1000.
        let a = AppSpec::periodic(0, Time::ZERO, 600, Time::secs(1.0), Bytes::gib(1.0), 1);
        let b = AppSpec::periodic(1, Time::ZERO, 600, Time::secs(1.0), Bytes::gib(1.0), 1);
        let err = simulate(&p, &[a, b], &mut RoundRobin, &SimConfig::default());
        assert!(matches!(err, Err(SimError::InvalidScenario(_))));
        let err = simulate(&p, &[], &mut RoundRobin, &SimConfig::default());
        assert!(matches!(err, Err(SimError::InvalidScenario(_))));
    }

    #[test]
    fn event_budget_guard_triggers() {
        let p = platform();
        let cfg = SimConfig {
            max_events: 3,
            ..SimConfig::default()
        };
        let apps: Vec<AppSpec> = (0..4).map(|i| app(i, 5)).collect();
        let err = simulate(&p, &apps, &mut RoundRobin, &cfg);
        assert!(matches!(err, Err(SimError::EventLimitExceeded { .. })));
    }

    /// Failure injection: a policy that overcommits the PFS.
    struct RoguePolicy;
    impl OnlinePolicy for RoguePolicy {
        fn name(&self) -> String {
            "rogue".into()
        }
        fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
            let grants = ctx.pending.iter().map(|a| (a.id, ctx.total_bw * 2.0));
            scratch.alloc.grants = grants.collect();
        }
    }

    /// Failure injection: a policy that grants nothing and never wakes up.
    struct SilentPolicy;
    impl OnlinePolicy for SilentPolicy {
        fn name(&self) -> String {
            "silent".into()
        }
        fn allocate_into(&mut self, _ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
            scratch.alloc.grants.clear();
        }
    }

    #[test]
    fn external_load_slows_io_exactly() {
        use crate::external_load::ExternalLoad;
        let p = platform();
        // Fully-blocking communication for the first 10 s of each 20 s.
        let cfg = SimConfig {
            external_load: Some(ExternalLoad {
                period: Time::secs(20.0),
                busy: Time::secs(10.0),
                fraction: 1.0,
            }),
            ..SimConfig::default()
        };
        // One app: compute [0, 8), then 20 GiB needing 2 s at full B —
        // but the network is blocked until t = 10, so I/O runs [10, 12).
        let out = simulate(&p, &[app(0, 1)], &mut MaxSysEff, &cfg).unwrap();
        let o = out.report.app(AppId(0)).unwrap();
        assert!(
            o.finish.approx_eq(Time::secs(12.0)),
            "finish {} (expected 12 s: stall until the busy phase ends)",
            o.finish
        );
        // §7 (ii): without communication traffic the run is unaffected.
        let quiet = SimConfig {
            external_load: Some(ExternalLoad {
                period: Time::secs(20.0),
                busy: Time::secs(10.0),
                fraction: 0.0,
            }),
            ..SimConfig::default()
        };
        let out = simulate(&p, &[app(0, 1)], &mut MaxSysEff, &quiet).unwrap();
        assert!(out
            .report
            .app(AppId(0))
            .unwrap()
            .finish
            .approx_eq(Time::secs(10.0)));
    }

    #[test]
    fn external_load_partial_fraction_shares_the_pipe() {
        use crate::external_load::ExternalLoad;
        let p = platform();
        // Communications permanently eat half of B → app bandwidth 5 GiB/s
        // → each 20 GiB transfer takes 4 s instead of 2.
        let cfg = SimConfig {
            external_load: Some(ExternalLoad {
                period: Time::secs(1.0),
                busy: Time::secs(1.0),
                fraction: 0.5,
            }),
            ..SimConfig::default()
        };
        let out = simulate(&p, &[app(0, 2)], &mut MinDilation, &cfg).unwrap();
        let o = out.report.app(AppId(0)).unwrap();
        assert!(
            o.finish.approx_eq(Time::secs(24.0)),
            "finish {} (expected 2 × (8 + 4) s)",
            o.finish
        );
        // The §2.2 accounting attributes the slowdown to I/O congestion.
        assert!(out.report.dilation > 1.0);
    }

    #[test]
    fn external_load_and_burst_buffer_are_exclusive() {
        use crate::external_load::ExternalLoad;
        let p = platform().with_default_burst_buffer();
        let cfg = SimConfig {
            use_burst_buffer: true,
            external_load: Some(ExternalLoad {
                period: Time::secs(1.0),
                busy: Time::secs(0.5),
                fraction: 0.5,
            }),
            ..SimConfig::default()
        };
        assert!(matches!(
            simulate(&p, &[app(0, 1)], &mut RoundRobin, &cfg),
            Err(SimError::InvalidScenario(_))
        ));
    }

    #[test]
    fn overcommitting_policy_is_rejected() {
        let p = platform();
        let err = simulate(&p, &[app(0, 1)], &mut RoguePolicy, &SimConfig::default());
        match err {
            Err(SimError::InvalidAllocation { policy, .. }) => assert_eq!(policy, "rogue"),
            other => panic!("expected InvalidAllocation, got {other:?}"),
        }
    }

    /// Failure injection: a policy whose grants come from `grants`, to
    /// feed the engine's screen malformed grant lists.
    struct ListPolicy {
        grants: fn(&SchedContext<'_>) -> Vec<(AppId, Bw)>,
    }
    impl OnlinePolicy for ListPolicy {
        fn name(&self) -> String {
            "list".into()
        }
        fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
            scratch.alloc.grants = (self.grants)(ctx);
        }
    }

    /// Run `grants` over two applications in I/O from `t = 0` (ids 0 and
    /// 1, with 1 GiB/s cards) and one computing (id 2); return the
    /// screen's verdict.
    fn screen(grants: fn(&SchedContext<'_>) -> Vec<(AppId, Bw)>) -> String {
        let io_first =
            |id: usize| AppSpec::periodic(id, Time::ZERO, 10, Time::ZERO, Bytes::gib(5.0), 1);
        let apps = [io_first(0), io_first(1), app(2, 1)];
        let mut policy = ListPolicy { grants };
        match simulate(&platform(), &apps, &mut policy, &SimConfig::default()) {
            Err(SimError::InvalidAllocation { policy, detail }) => {
                assert_eq!(policy, "list");
                detail
            }
            other => panic!("expected InvalidAllocation, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_grant_is_rejected() {
        let detail = screen(|ctx| vec![(ctx.pending[0].id, Bw::gib_per_sec(0.5)); 2]);
        assert_eq!(detail, format!("duplicate grant for {}", AppId(0)));
    }

    #[test]
    fn grants_out_of_app_id_order_are_rejected() {
        let detail = screen(|ctx| {
            let half = Bw::gib_per_sec(0.5);
            vec![(ctx.pending[1].id, half), (ctx.pending[0].id, half)]
        });
        assert_eq!(
            detail,
            format!(
                "grants not sorted by AppId ({} precedes {}); policies must emit \
                 AppId-ordered grants",
                AppId(1),
                AppId(0)
            )
        );
    }

    #[test]
    fn grant_for_a_computing_application_is_rejected() {
        let detail = screen(|ctx| {
            assert_eq!(ctx.pending.len(), 2, "application 2 is computing");
            let half = Bw::gib_per_sec(0.5);
            vec![(ctx.pending[0].id, half), (AppId(2), half)]
        });
        assert_eq!(detail, format!("grant for non-pending {}", AppId(2)));
    }

    /// MinDilation's grants plus an explicit `0.0` grant for every
    /// pending application it stalls.
    struct ZeroPadded(MinDilation);
    impl OnlinePolicy for ZeroPadded {
        fn name(&self) -> String {
            "zero-padded".into()
        }
        fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
            self.0.allocate_into(ctx, scratch);
            let inner = &scratch.alloc;
            let grants = ctx.pending.iter().map(|a| (a.id, inner.granted(a.id)));
            scratch.alloc.grants = grants.collect();
        }
    }

    #[test]
    fn explicit_zero_grants_match_omitted_ones_bit_for_bit() {
        use iosched_model::Interference;
        // 30-processor cards (3 GiB/s) let three or four applications
        // share `B`, and the locality penalty makes every effective rate
        // differ from its grant.
        let p = platform().with_interference(Interference::default_penalty());
        let apps: Vec<AppSpec> = (0..8)
            .map(|i| {
                let w = Time::secs(2.0 + i as f64);
                let release = Time::secs(i as f64 * 1.5);
                AppSpec::periodic(i, release, 30, w, Bytes::gib(6.0 + i as f64), 3)
            })
            .collect();
        let config = SimConfig::traced();
        let omitted = simulate(&p, &apps, &mut MinDilation, &config).unwrap();
        let padded = simulate(&p, &apps, &mut ZeroPadded(MinDilation), &config).unwrap();
        let trace = omitted.trace.as_ref().unwrap();
        assert!(trace.segments.iter().any(|s| s.grants.len() > 1));
        // Derived `Debug` prints every `f64` in its shortest round-trip
        // form, so equal strings mean equal bits.
        assert_eq!(format!("{omitted:?}"), format!("{padded:?}"));
    }

    #[test]
    fn silent_policy_is_detected_as_livelock() {
        let p = platform();
        let err = simulate(&p, &[app(0, 1)], &mut SilentPolicy, &SimConfig::default());
        match err {
            Err(SimError::PolicyStalledSystem { policy, .. }) => assert_eq!(policy, "silent"),
            other => panic!("expected PolicyStalledSystem, got {other:?}"),
        }
    }

    #[test]
    fn stepping_matches_the_one_shot_run() {
        let p = platform();
        let apps = [app(0, 3), app(1, 2)];
        let one_shot = simulate(&p, &apps, &mut MinDilation, &SimConfig::traced()).unwrap();

        let config = SimConfig::traced();
        let mut policy = MinDilation;
        let mut sim = Simulation::new(&p, &apps, &mut policy, &config).unwrap();
        let mut steps = 0;
        while sim.step().unwrap() == StepStatus::Advanced {
            steps += 1;
            assert!(sim.now().approx_ge(Time::ZERO));
            assert!(sim.pending_apps().len() <= apps.len());
        }
        assert!(sim.is_finished());
        let stepped = sim.into_outcome();

        assert_eq!(stepped.events, one_shot.events);
        assert_eq!(steps, one_shot.events);
        assert!(stepped.end_time.approx_eq(one_shot.end_time));
        assert_eq!(
            stepped.report.sys_efficiency.to_bits(),
            one_shot.report.sys_efficiency.to_bits(),
            "stepped and one-shot runs must agree bit-for-bit"
        );
        assert_eq!(
            stepped.report.dilation.to_bits(),
            one_shot.report.dilation.to_bits()
        );
        assert_eq!(
            stepped.trace.as_ref().unwrap().segments.len(),
            one_shot.trace.as_ref().unwrap().segments.len()
        );
    }

    #[test]
    fn step_after_finish_is_an_idempotent_no_op() {
        let p = platform();
        let apps = [app(0, 1)];
        let config = SimConfig::default();
        let mut policy = RoundRobin;
        let mut sim = Simulation::new(&p, &apps, &mut policy, &config).unwrap();
        while !sim.is_finished() {
            sim.step().unwrap();
        }
        let events = sim.events();
        assert_eq!(sim.step().unwrap(), StepStatus::Finished);
        assert_eq!(sim.step().unwrap(), StepStatus::Finished);
        assert_eq!(sim.events(), events, "no-op steps must not count events");
    }

    /// Regression: with no application ingesting, a burst buffer still
    /// draining the interleaved data of `n` earlier writers must drain at
    /// `B·factor(n)`, not the full `B` (the empty-pending early return
    /// used to skip the contended-drain path entirely).
    #[test]
    fn idle_drain_of_buffered_data_stays_contended() {
        use iosched_model::{Instance, InstancePattern, Interference};
        let p = platform()
            .with_interference(Interference::default_penalty())
            .with_default_burst_buffer();
        // Two apps dump a burst into the buffer, then compute for a long
        // time: the buffer keeps draining while nobody ingests.
        let burst_then_compute = |id: usize| {
            AppSpec::new(
                id,
                Time::ZERO,
                100,
                InstancePattern::Explicit(vec![
                    Instance::new(Time::ZERO, Bytes::gib(30.0)),
                    Instance::new(Time::secs(1_000.0), Bytes::gib(1.0)),
                ]),
            )
        };
        let apps = [burst_then_compute(0), burst_then_compute(1)];
        let config = SimConfig::with_burst_buffer();
        let mut policy = RoundRobin;
        let mut sim = Simulation::new(&p, &apps, &mut policy, &config).unwrap();
        // Advance until both bursts were absorbed (no pending I/O left).
        while !sim.pending_apps().is_empty() {
            sim.step().unwrap();
        }
        let expected = p.total_bw * p.interference.factor(2);
        assert!(
            sim.drain_bw().approx_eq(expected),
            "idle drain {} should contend like the 2 buffered writers ({})",
            sim.drain_bw(),
            expected
        );
    }

    /// Satellite regression (PR 3 cache × §7 external load): an
    /// external-load boundary that *changes* the granted rates must
    /// invalidate the cached absolute completion instants (the merge
    /// walk's rate-bits comparison sets the dirty flag), and a boundary
    /// that leaves every rate untouched must be free to keep them — in
    /// both cases the completion instants are exact, never stale.
    #[test]
    fn external_load_boundaries_never_leave_stale_predicted_completions() {
        use crate::external_load::ExternalLoad;
        let p = platform();
        // 20 procs → card limit 2 GiB/s; w = 8 s then 20 GiB.
        let small = AppSpec::periodic(0, Time::ZERO, 20, Time::secs(8.0), Bytes::gib(20.0), 1);

        // Case 1 — boundary with *unchanged* rates: while busy the pipe
        // still offers 5 GiB/s ≥ the 2 GiB/s card limit, so the grant is
        // identical on both sides of the t = 10 s boundary and the cached
        // completion at 8 + 20/2 = 18 s stays valid.
        let quiet = SimConfig {
            external_load: Some(ExternalLoad {
                period: Time::secs(20.0),
                busy: Time::secs(10.0),
                fraction: 0.5,
            }),
            ..SimConfig::default()
        };
        let out = simulate(&p, std::slice::from_ref(&small), &mut MaxSysEff, &quiet).unwrap();
        let o = out.report.app(AppId(0)).unwrap();
        assert!(
            o.finish.approx_eq(Time::secs(18.0)),
            "finish {} (expected 18 s: rate constant across the boundary)",
            o.finish
        );

        // Case 2 — boundary that changes the rate: while busy only
        // 1 GiB/s remains, so I/O runs [8, 10) at 1 GiB/s (2 GiB done)
        // and [10, 19) at 2 GiB/s. A stale cached prediction from the
        // busy interval (8 + 20/1 = 28 s) would overshoot by 9 s.
        let squeeze = SimConfig {
            external_load: Some(ExternalLoad {
                period: Time::secs(20.0),
                busy: Time::secs(10.0),
                fraction: 0.9,
            }),
            ..SimConfig::default()
        };
        let out = simulate(&p, &[small], &mut MaxSysEff, &squeeze).unwrap();
        let o = out.report.app(AppId(0)).unwrap();
        assert!(
            o.finish.approx_eq(Time::secs(19.0)),
            "finish {} (expected 19 s: the boundary re-rate must invalidate the cache)",
            o.finish
        );
    }

    #[test]
    fn telemetry_tap_observes_the_run_and_exports_on_request() {
        let p = platform();
        let apps = [app(0, 2), app(1, 2)];
        let config = SimConfig::with_telemetry();
        let mut policy = MinDilation;
        let mut sim = Simulation::new(&p, &apps, &mut policy, &config).unwrap();
        assert!(sim.telemetry().signal().is_none(), "nothing closed yet");
        sim.step().unwrap();
        let signal = sim.telemetry().signal().expect("first interval closed");
        // Both apps compute for the first 8 s: an idle, uncontended pipe.
        assert_eq!(signal.pending, 0);
        assert!(signal.contention == 0.0 && signal.utilization == 0.0);
        while !sim.is_finished() {
            sim.step().unwrap();
        }
        let samples = sim.telemetry().samples();
        assert!(samples > 0);
        let out = sim.into_outcome();
        let summary = out.telemetry.expect("telemetry flag requested a summary");
        assert_eq!(summary.samples, samples);
        assert!(summary.busy_secs > 0.0);
        // Two 20 GiB transfers through a 10 GiB/s serializing policy:
        // the pipe saturates while both contend.
        assert!(summary.utilization.max > 0.99);
        assert!(summary.peak_pending == 2);
        assert!(summary.peak_backlog_gib >= 20.0);
        assert!(summary.mean_utilization > 0.0 && summary.mean_utilization <= 1.0);
        // Without the flag the outcome carries no summary…
        let out = simulate(&p, &apps, &mut MinDilation, &SimConfig::default()).unwrap();
        assert!(out.telemetry.is_none());
    }

    #[test]
    fn telemetry_flag_does_not_move_a_single_bit() {
        let p = platform();
        let apps = [app(0, 3), app(1, 2), app(2, 2)];
        let on = simulate(&p, &apps, &mut MinDilation, &SimConfig::with_telemetry()).unwrap();
        let off = simulate(&p, &apps, &mut MinDilation, &SimConfig::default()).unwrap();
        assert_eq!(on.events, off.events);
        assert_eq!(
            on.report.sys_efficiency.to_bits(),
            off.report.sys_efficiency.to_bits()
        );
        assert_eq!(on.report.dilation.to_bits(), off.report.dilation.to_bits());
        assert!(on.telemetry.is_some() && off.telemetry.is_none());
    }

    #[test]
    fn control_policy_closes_its_loop_through_the_engine() {
        use iosched_core::control::ControlPolicy;
        let p = platform();
        let apps: Vec<AppSpec> = (0..4).map(|i| app(i, 3)).collect();
        let mut policy = ControlPolicy::pi_default();
        let out = simulate(&p, &apps, &mut policy, &SimConfig::with_telemetry()).unwrap();
        assert!(out.report.dilation >= 1.0);
        // Work is conserved: every app moved its full volume.
        for i in 0..4 {
            assert!(out.bytes_of(AppId(i)).unwrap().approx_eq(Bytes::gib(60.0)));
        }
        // The same closed-loop run under an external storm still
        // completes (the signal hand-off feeds the controller at every
        // event).
        let stormy = SimConfig {
            external_load: Some(crate::external_load::ExternalLoad {
                period: Time::secs(30.0),
                busy: Time::secs(15.0),
                fraction: 0.7,
            }),
            telemetry: true,
            ..SimConfig::default()
        };
        let mut policy = ControlPolicy::pi_default();
        let out = simulate(&p, &apps, &mut policy, &stormy).unwrap();
        assert!(out.telemetry.unwrap().mean_contention > 0.0);
    }

    /// A release-sorted closed roster fed through the stream path must
    /// reproduce the closed engine bit-for-bit: both admit through the
    /// same queue, and only validation (whole roster vs. per arrival)
    /// differs.
    #[test]
    fn stream_path_matches_closed_path_on_a_closed_roster() {
        let p = platform();
        let mut apps: Vec<AppSpec> = (0..5).map(|i| app(i, 3)).collect();
        for (i, a) in apps.iter_mut().enumerate() {
            a.set_release(Time::secs(i as f64 * 3.0));
        }
        let closed = simulate(&p, &apps, &mut MinDilation, &SimConfig::default()).unwrap();
        let streamed = simulate_open(&p, &apps, &mut MinDilation, &SimConfig::default()).unwrap();
        assert_eq!(closed.events, streamed.events);
        assert_eq!(
            closed.report.sys_efficiency.to_bits(),
            streamed.report.sys_efficiency.to_bits()
        );
        assert_eq!(
            closed.report.dilation.to_bits(),
            streamed.report.dilation.to_bits()
        );
        assert_eq!(closed.per_app_bytes, streamed.per_app_bytes);
        // The stream path carries a steady summary, the closed one not.
        assert!(closed.steady.is_none());
        let steady = streamed.steady.expect("stream runs attach steady state");
        assert_eq!(steady.admitted, 5);
        assert_eq!(steady.completed, 5);
        assert_eq!(steady.left_in_system, 0);
    }

    /// The open system's point: a stream whose *total* processor demand
    /// vastly oversubscribes the machine runs fine as long as each
    /// application fits, and the slot arena tracks concurrency.
    #[test]
    fn stream_recycles_slots_and_relaxes_the_closed_budget() {
        let p = platform(); // 1,000 processors
        let n = 200;
        // 400 procs each, spread far apart: ≤ 2 concurrent.
        let apps: Vec<AppSpec> = (0..n)
            .map(|i| {
                AppSpec::periodic(
                    i,
                    Time::secs(i as f64 * 6.0),
                    400,
                    Time::secs(4.0),
                    Bytes::gib(20.0),
                    1,
                )
            })
            .collect();
        // Closed validation rejects the total (200 × 400 ≫ 1,000)…
        assert!(matches!(
            simulate(&p, &apps, &mut MinDilation, &SimConfig::default()),
            Err(SimError::InvalidScenario(_))
        ));
        // …the stream path runs it in a concurrency-sized arena.
        let config = SimConfig::default();
        let mut policy = MinDilation;
        let mut sim =
            Simulation::from_stream(&p, apps.iter().cloned(), &mut policy, &config).unwrap();
        while !sim.is_finished() {
            sim.step().unwrap();
        }
        assert!(
            sim.runtimes().len() <= 4,
            "arena held {} slots for {} apps",
            sim.runtimes().len(),
            n
        );
        assert_eq!(sim.admitted(), n);
        assert_eq!(sim.finished_count(), n);
        let out = sim.into_outcome();
        assert_eq!(out.report.per_app.len(), n);
        assert!((out.report.dilation - 1.0).abs() < 1e-9, "no contention");
    }

    #[test]
    fn horizon_halts_and_warmup_trims_the_steady_window() {
        let p = platform();
        // One app per 10 s, forever short of the horizon: w = 8 s,
        // vol = 20 GiB → 2 s of I/O, all dedicated.
        let apps: Vec<AppSpec> = (0..100)
            .map(|i| {
                AppSpec::periodic(
                    i,
                    Time::secs(i as f64 * 10.0),
                    100,
                    Time::secs(8.0),
                    Bytes::gib(20.0),
                    1,
                )
            })
            .collect();
        let config = SimConfig {
            warmup: Time::secs(100.0),
            horizon: Some(Time::secs(500.0)),
            ..SimConfig::default()
        };
        let out = simulate_open(&p, &apps, &mut MaxSysEff, &config).unwrap();
        assert!(
            out.end_time.approx_eq(Time::secs(500.0)),
            "{}",
            out.end_time
        );
        let steady = out.steady.expect("windowed run attaches steady state");
        // Releases at 0, 10, …, 500: the event at exactly the horizon is
        // still processed, so 51 applications were admitted and the last
        // one is cut off mid-flight.
        assert_eq!(steady.admitted, 51);
        assert_eq!(steady.left_in_system, 1);
        // Completions at 10, 20, …, 500: the 41 at `t ≥ 100` count.
        assert_eq!(steady.completed, 41);
        assert!((steady.window_secs - 400.0).abs() < 1e-6);
        assert!((steady.mean_stretch - 1.0).abs() < 1e-9);
        assert!((steady.max_stretch - 1.0).abs() < 1e-9);
        // 2 s of I/O per 10 s cycle → mean queue 0.2, utilization 0.2.
        assert!(
            (steady.mean_queue - 0.2).abs() < 1e-6,
            "{}",
            steady.mean_queue
        );
        assert!((steady.mean_utilization - 0.2).abs() < 1e-6);
        assert!((steady.throughput_per_hour - 41.0 * 9.0).abs() < 1e-6);
    }

    /// The halt advance must close the run cleanly: the clock never
    /// regresses, the final trace segment ends exactly at the horizon
    /// and the segments still tile.
    #[test]
    fn horizon_halt_keeps_trace_segments_tiled() {
        let p = platform();
        let apps = [app(0, 1), app(1, 3)];
        let config = SimConfig {
            record_trace: true,
            horizon: Some(Time::secs(15.0)),
            ..SimConfig::default()
        };
        let out = simulate(&p, &apps, &mut MinDilation, &config).unwrap();
        assert!(out.end_time.approx_eq(Time::secs(15.0)));
        // App 0 finished (t = 12 under contention ≤ 15); app 1 was cut.
        assert_eq!(out.report.per_app.len(), 1);
        let trace = out.trace.unwrap();
        assert!(trace.segments.last().unwrap().end.approx_eq(out.end_time));
        for w in trace.segments.windows(2) {
            assert!(w[0].end.approx_le(w[1].start), "segments must tile");
        }
        for seg in &trace.segments {
            assert!(seg.start.approx_le(seg.end), "no negative segments");
        }
    }

    /// A horizon must not mask a stalled policy: infinite t_next while
    /// applications are pending is a diagnostic, not idle time.
    #[test]
    fn horizon_does_not_mask_a_stalled_system() {
        let p = platform();
        let config = SimConfig {
            horizon: Some(Time::secs(200_000.0)),
            ..SimConfig::default()
        };
        let err = simulate(&p, &[app(0, 1)], &mut SilentPolicy, &config);
        match err {
            Err(SimError::PolicyStalledSystem { policy, .. }) => assert_eq!(policy, "silent"),
            other => panic!("expected PolicyStalledSystem, got {other:?}"),
        }
    }

    /// A closed roster cut by a horizon counts only *released*
    /// applications as admitted — never-released ones must not read as
    /// saturation (`left_in_system`), matching the stream path.
    #[test]
    fn horizon_on_closed_roster_counts_only_released_apps() {
        let p = platform();
        // Releases at 0, 40, 80, …, 360: only 0 and 40 land before the
        // horizon at 45; the first finishes at 10, the second is cut
        // mid-compute.
        let apps: Vec<AppSpec> = (0..10)
            .map(|i| {
                let mut a = app(i, 1);
                a.set_release(Time::secs(i as f64 * 40.0));
                a
            })
            .collect();
        let config = SimConfig {
            horizon: Some(Time::secs(45.0)),
            ..SimConfig::default()
        };
        let out = simulate(&p, &apps, &mut MinDilation, &config).unwrap();
        let steady = out.steady.expect("windowed run attaches steady state");
        assert_eq!(steady.admitted, 2, "only two releases fell before the cut");
        assert_eq!(steady.completed, 1);
        assert_eq!(steady.left_in_system, 1);
    }

    #[test]
    fn horizon_before_any_completion_is_a_config_error() {
        let p = platform();
        let config = SimConfig {
            horizon: Some(Time::secs(1.0)),
            ..SimConfig::default()
        };
        let err = simulate(&p, &[app(0, 1)], &mut MinDilation, &config);
        assert!(matches!(err, Err(SimError::InvalidScenario(_))), "{err:?}");
        // Degenerate windows are rejected outright.
        let bad = SimConfig {
            warmup: Time::secs(10.0),
            horizon: Some(Time::secs(5.0)),
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(SimConfig::windowed(Time::ZERO, Time::secs(100.0))
            .validate()
            .is_ok());
    }

    /// Switching the per-app detail off only drops the detail: the
    /// aggregate objectives agree with the detailed run (to rounding —
    /// the streaming fold sums in finish order) and nothing per-app is
    /// retained.
    #[test]
    fn lean_outcome_matches_detailed_aggregates() {
        let p = platform();
        let apps: Vec<AppSpec> = (0..6).map(|i| app(i, 2)).collect();
        let detailed = simulate_open(&p, &apps, &mut MinDilation, &SimConfig::default()).unwrap();
        let lean_config = SimConfig {
            per_app_detail: false,
            ..SimConfig::default()
        };
        let lean = simulate_open(&p, &apps, &mut MinDilation, &lean_config).unwrap();
        assert_eq!(lean.events, detailed.events);
        assert!(lean.report.per_app.is_empty());
        assert!(lean.per_app_bytes.is_empty());
        assert!((lean.report.sys_efficiency - detailed.report.sys_efficiency).abs() < 1e-12);
        assert!((lean.report.upper_limit - detailed.report.upper_limit).abs() < 1e-12);
        assert_eq!(
            lean.report.dilation.to_bits(),
            detailed.report.dilation.to_bits(),
            "max is order-independent"
        );
        assert!(lean.end_time.approx_eq(detailed.end_time));
    }

    #[test]
    fn empty_stream_is_rejected() {
        let p = platform();
        let config = SimConfig::default();
        let mut policy = MinDilation;
        let err = Simulation::from_stream(&p, std::iter::empty(), &mut policy, &config);
        assert!(matches!(err, Err(SimError::InvalidScenario(_))));
    }

    #[test]
    fn malformed_stream_arrivals_are_rejected_at_admission() {
        let p = platform();
        let config = SimConfig::default();
        // Ids not dense in release order.
        let mut policy = MinDilation;
        let bad_ids = vec![app(3, 1)];
        let err = Simulation::from_stream(&p, bad_ids.into_iter(), &mut policy, &config);
        assert!(matches!(err, Err(SimError::InvalidScenario(_))));
        // Releases going backwards.
        let mut a = app(0, 1);
        a.set_release(Time::secs(50.0));
        let mut b = app(1, 1);
        b.set_release(Time::secs(10.0));
        let mut policy = MinDilation;
        let mut sim =
            Simulation::from_stream(&p, vec![a, b].into_iter(), &mut policy, &config).unwrap();
        let err = loop {
            match sim.step() {
                Ok(StepStatus::Advanced) => {}
                Ok(StepStatus::Finished | StepStatus::Idle) => {
                    panic!("unsorted stream must error")
                }
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SimError::InvalidScenario(_)), "{err}");
        // An application bigger than the machine.
        let huge = AppSpec::periodic(0, Time::ZERO, 10_000, Time::secs(1.0), Bytes::gib(1.0), 1);
        let mut policy = MinDilation;
        let err = Simulation::from_stream(&p, vec![huge].into_iter(), &mut policy, &config);
        assert!(matches!(err, Err(SimError::InvalidScenario(_))));
    }

    /// The window knobs ride through serde leniently and reject
    /// degenerate values at parse time.
    #[test]
    fn sim_config_window_serde() {
        let json = r#"{"warmup": 100.0, "horizon": 4000.0, "per_app_detail": false}"#;
        let config: SimConfig = serde_json::from_str(json).unwrap();
        assert!(config.warmup.approx_eq(Time::secs(100.0)));
        assert_eq!(config.horizon, Some(Time::secs(4_000.0)));
        assert!(!config.per_app_detail);
        // Defaults when absent.
        let config: SimConfig = serde_json::from_str(r#"{"telemetry": true}"#).unwrap();
        assert!(config.warmup.is_zero());
        assert!(config.horizon.is_none());
        assert!(config.per_app_detail);
        // Roundtrip.
        let full = SimConfig::windowed(Time::secs(50.0), Time::secs(2_000.0));
        let json = serde_json::to_string(&full).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(full, back);
        // A horizon inside the warmup is rejected at parse time.
        assert!(serde_json::from_str::<SimConfig>(r#"{"warmup": 10.0, "horizon": 5.0}"#).is_err());
    }

    #[test]
    fn trace_segments_tile_the_run() {
        let p = platform();
        let out = simulate(
            &p,
            &[app(0, 2), app(1, 2)],
            &mut RoundRobin,
            &SimConfig::traced(),
        )
        .unwrap();
        let trace = out.trace.unwrap();
        assert!(!trace.is_empty());
        trace.validate(&p, &|_| Some(100)).unwrap();
        for w in trace.segments.windows(2) {
            assert!(w[0].end.approx_le(w[1].start));
        }
    }

    /// Arrivals staggered so offers and engine events interleave.
    fn staggered(n: usize) -> Vec<AppSpec> {
        (0..n)
            .map(|k| {
                let mut a = app(k, 2);
                a.set_release(Time::secs(0.25 + 3.0 * k as f64));
                a
            })
            .collect()
    }

    /// The reentrant-admission contract: driving an open engine through
    /// externally offered arrivals — interleaved with bounded stepping —
    /// is bit-identical to `simulate_stream` over the same sequence, to
    /// the event count.
    #[test]
    fn open_offers_match_simulate_stream_bit_for_bit() {
        let p = platform();
        let config = SimConfig::default();
        let apps = staggered(6);

        let mut pol = MinDilation;
        let baseline = simulate_stream(&p, apps.iter().cloned(), &mut pol, &config).unwrap();

        let mut pol = MinDilation;
        let mut sim = Simulation::open(&p, &mut pol, &config).unwrap();
        for a in &apps {
            // Drive to just before the arrival, then offer it — every
            // offer lands with the clock strictly behind its release.
            let bound = a.release() - Time::secs(0.1);
            sim.run_until(bound).unwrap();
            sim.offer(a.clone()).unwrap();
        }
        sim.close_admission();
        let out = sim.run_to_completion().unwrap();

        assert_eq!(out.events, baseline.events, "event counts diverged");
        assert_eq!(
            out.end_time.get().to_bits(),
            baseline.end_time.get().to_bits()
        );
        assert_eq!(
            out.report.dilation.to_bits(),
            baseline.report.dilation.to_bits()
        );
        assert_eq!(
            out.report.sys_efficiency.to_bits(),
            baseline.report.sys_efficiency.to_bits()
        );
        for a in &apps {
            let ours = out.report.app(a.id()).unwrap();
            let theirs = baseline.report.app(a.id()).unwrap();
            assert_eq!(ours.finish.get().to_bits(), theirs.finish.get().to_bits());
            assert_eq!(ours.rho_tilde.to_bits(), theirs.rho_tilde.to_bits());
        }
    }

    /// Replaying a prefix of the offer sequence, then the rest, matches
    /// offering everything up front — the property the daemon's
    /// journal-replay checkpoint relies on.
    #[test]
    fn offer_sequence_replay_is_deterministic() {
        let p = platform();
        let config = SimConfig::default();
        let apps = staggered(5);

        // All offers before any stepping.
        let mut pol = MinDilation;
        let mut sim = Simulation::open(&p, &mut pol, &config).unwrap();
        for a in &apps {
            sim.offer(a.clone()).unwrap();
        }
        sim.close_admission();
        let all_up_front = sim.run_to_completion().unwrap();

        // Offers trickled in while the engine runs between them.
        let mut pol = MinDilation;
        let mut sim = Simulation::open(&p, &mut pol, &config).unwrap();
        for (k, a) in apps.iter().enumerate() {
            sim.offer(a.clone()).unwrap();
            if k == 2 {
                // Mid-sequence drive: the clock advances through the
                // first arrivals before the rest are even known.
                sim.run_until(a.release() - Time::secs(0.05)).unwrap();
            }
        }
        sim.close_admission();
        let trickled = sim.run_to_completion().unwrap();

        assert_eq!(all_up_front.events, trickled.events);
        assert_eq!(
            all_up_front.end_time.get().to_bits(),
            trickled.end_time.get().to_bits()
        );
        assert_eq!(
            all_up_front.report.dilation.to_bits(),
            trickled.report.dilation.to_bits()
        );
    }

    #[test]
    fn idle_open_engine_waits_without_consuming_events() {
        let p = platform();
        let config = SimConfig::default();
        let mut pol = MinDilation;
        let mut sim = Simulation::open(&p, &mut pol, &config).unwrap();
        assert!(sim.admission_open());
        assert!(!sim.is_finished());
        // Stepping an empty open engine is a no-op poll.
        assert_eq!(sim.step().unwrap(), StepStatus::Idle);
        assert_eq!(sim.events(), 0);
        assert_eq!(sim.run_until(Time::secs(100.0)).unwrap(), RunStatus::Idle);

        // A queued future arrival turns Idle into Blocked at its release.
        let mut a = app(0, 1);
        a.set_release(Time::secs(5.0));
        sim.offer(a).unwrap();
        assert_eq!(sim.queued(), 1);
        assert_eq!(
            sim.run_until(Time::secs(2.0)).unwrap(),
            RunStatus::Blocked(Time::secs(5.0))
        );
        assert!(sim.now().is_zero());

        sim.close_admission();
        assert!(!sim.admission_open());
        assert_eq!(sim.run_until(Time::INFINITY).unwrap(), RunStatus::Finished);
        assert!(sim.is_finished());
        let out = sim.into_outcome();
        assert_eq!(out.report.per_app.len(), 1);
    }

    #[test]
    fn rejected_offers_leave_the_engine_untouched() {
        let p = platform();
        let config = SimConfig::default();

        // Roster engines take no offers.
        let mut pol = MinDilation;
        let mut sim = Simulation::new(&p, &[app(0, 1)], &mut pol, &config).unwrap();
        let err = sim.offer(app(1, 1)).unwrap_err();
        assert!(err.to_string().contains("has been closed"), "{err}");

        // Stream engines take no offers either.
        let apps = staggered(2);
        let mut pol = MinDilation;
        let mut sim = Simulation::from_stream(&p, apps.into_iter(), &mut pol, &config).unwrap();
        let err = sim.offer(app(2, 1)).unwrap_err();
        assert!(err.to_string().contains("stream source"), "{err}");

        // Open engine: each rejection names its rule and changes nothing.
        let mut pol = MinDilation;
        let mut sim = Simulation::open(&p, &mut pol, &config).unwrap();

        // Release not after the clock (now = 0).
        let err = sim.offer(app(0, 1)).unwrap_err();
        assert!(
            err.to_string().contains("not after the engine clock"),
            "{err}"
        );

        // Id not dense at its queue position.
        let mut late = app(7, 1);
        late.set_release(Time::secs(1.0));
        let err = sim.offer(late).unwrap_err();
        assert!(err.to_string().contains("dense"), "{err}");

        // Wider than the machine.
        let mut huge = AppSpec::periodic(
            0,
            Time::secs(1.0),
            10_000,
            Time::secs(1.0),
            Bytes::gib(1.0),
            1,
        );
        huge.set_release(Time::secs(1.0));
        let err = sim.offer(huge).unwrap_err();
        assert!(err.to_string().contains("processors"), "{err}");

        // Nothing was queued or admitted by any rejection.
        assert_eq!(sim.queued(), 0);
        assert_eq!(sim.admitted(), 0);

        // A valid offer still goes through, and closing shuts the door.
        let mut ok = app(0, 1);
        ok.set_release(Time::secs(1.0));
        sim.offer(ok).unwrap();
        sim.close_admission();
        let mut more = app(1, 1);
        more.set_release(Time::secs(2.0));
        let err = sim.offer(more).unwrap_err();
        assert!(err.to_string().contains("has been closed"), "{err}");
        assert_eq!(sim.run_until(Time::INFINITY).unwrap(), RunStatus::Finished);
    }

    /// `run_until` in many small hops is the same run as free stepping —
    /// bounds never inject events.
    #[test]
    fn bounded_driving_matches_free_running() {
        let p = platform();
        let config = SimConfig::default();
        let apps = staggered(4);

        let mut pol = MaxSysEff;
        let free = simulate_stream(&p, apps.iter().cloned(), &mut pol, &config).unwrap();

        let mut pol = MaxSysEff;
        let mut sim = Simulation::from_stream(&p, apps.into_iter(), &mut pol, &config).unwrap();
        let mut bound = Time::ZERO;
        loop {
            match sim.run_until(bound).unwrap() {
                RunStatus::Finished => break,
                RunStatus::Blocked(next) => {
                    assert!(next.approx_gt(bound));
                    bound = bound.max(next - Time::secs(0.001)) + Time::secs(0.7);
                }
                RunStatus::Idle => unreachable!("stream mode never idles"),
            }
        }
        let hopped = sim.into_outcome();
        assert_eq!(free.events, hopped.events);
        assert_eq!(
            free.end_time.get().to_bits(),
            hopped.end_time.get().to_bits()
        );
        assert_eq!(
            free.report.sys_efficiency.to_bits(),
            hopped.report.sys_efficiency.to_bits()
        );
    }

    #[test]
    fn unclosed_open_engine_cannot_run_to_completion() {
        let p = platform();
        let config = SimConfig::default();
        let mut pol = MinDilation;
        let sim = Simulation::open(&p, &mut pol, &config).unwrap();
        let err = sim.run_to_completion().unwrap_err();
        assert!(err.to_string().contains("close_admission"), "{err}");
    }

    /// The always-on tap answers the same with the telemetry series on
    /// or off: the serve daemon's feed (`samples`, `recent`, `last`) and
    /// the policy signal read it, never the series.
    #[test]
    fn telemetry_feed_is_the_same_with_the_series_on_or_off() {
        fn bits(s: &TelemetrySample) -> [u64; 8] {
            [
                s.start.get().to_bits(),
                s.end.get().to_bits(),
                s.offered.get().to_bits(),
                s.granted.get().to_bits(),
                s.delivered.get().to_bits(),
                s.capacity.get().to_bits(),
                s.backlog.get().to_bits(),
                s.pending as u64,
            ]
        }
        /// `samples()`, `recent(samples())`, `last()` and `signal()`.
        type Feed = (usize, Vec<[u64; 8]>, Option<[u64; 8]>, Option<[u64; 4]>);
        fn feed(t: &Telemetry) -> Feed {
            (
                t.samples(),
                t.recent(t.samples()).iter().map(bits).collect(),
                t.last().map(bits),
                t.signal().map(|s| {
                    [
                        s.utilization.to_bits(),
                        s.contention.to_bits(),
                        s.backlog.get().to_bits(),
                        s.pending as u64,
                    ]
                }),
            )
        }
        let p = platform();
        let apps = staggered(6);
        let on = SimConfig {
            telemetry: true,
            ..SimConfig::default()
        };
        let off = SimConfig::default();
        let (mut pol_on, mut pol_off) = (MinDilation, MinDilation);
        let mut with = Simulation::open(&p, &mut pol_on, &on).unwrap();
        let mut without = Simulation::open(&p, &mut pol_off, &off).unwrap();
        for sim in [&mut with, &mut without] {
            for a in &apps {
                sim.offer(a.clone()).unwrap();
            }
            sim.close_admission();
        }
        // Compare after every hop, so the ring is read mid-run too.
        let mut bound = Time::ZERO;
        while !with.is_finished() {
            with.run_until(bound).unwrap();
            without.run_until(bound).unwrap();
            assert_eq!(feed(with.telemetry()), feed(without.telemetry()));
            bound += Time::secs(1.5);
        }
        assert!(without.is_finished());
        assert!(with.telemetry().samples() > 0);
        assert!(with.into_outcome().telemetry.is_some());
        assert!(without.into_outcome().telemetry.is_none());
    }

    /// The compute heap pops earliest first and breaks `at` ties by
    /// ascending `AppId`, up to the largest finite times.
    #[test]
    fn compute_events_pop_earliest_first_ties_by_app_id() {
        let events = [
            (10.0, 3),
            (10.0, 1),
            (10.0, 2),
            (5.0, 7),
            (70.0, 0),
            (70.0, 9),
            (5.0, 4),
            (20_000.0, 5),
            (20_000.0, 6),
            (2e21, 10),
            (f64::MAX, 11),
            (1e300, 12),
            (2e21, 8),
            (f64::MAX, 13),
        ];
        let mut heap: BinaryHeap<ComputeEvent> = events
            .iter()
            .map(|&(at, id)| ComputeEvent {
                at: Time::secs(at),
                id: AppId(id),
                idx: id,
            })
            .collect();
        let mut popped = Vec::new();
        while let Some(ev) = heap.pop() {
            popped.push((ev.at.as_secs(), ev.id.0));
        }
        assert_eq!(
            popped,
            [
                (5.0, 4),
                (5.0, 7),
                (10.0, 1),
                (10.0, 2),
                (10.0, 3),
                (70.0, 0),
                (70.0, 9),
                (20_000.0, 5),
                (20_000.0, 6),
                (2e21, 8),
                (2e21, 10),
                (1e300, 12),
                (f64::MAX, 11),
                (f64::MAX, 13),
            ]
        );
    }

    /// Two applications released together with one zero-volume instance
    /// of equal work finish computing at the same instant; the compute
    /// heap's tie order retires them in ascending `AppId` order, whatever
    /// the roster order.
    #[test]
    fn simultaneous_compute_completions_retire_in_app_id_order() {
        let p = platform();
        let config = SimConfig::default();
        let compute_only =
            |id: usize| AppSpec::periodic(id, Time::ZERO, 100, Time::secs(5.0), Bytes::ZERO, 1);
        for roster in [
            [compute_only(0), compute_only(1)],
            [compute_only(1), compute_only(0)],
        ] {
            let mut pol = RoundRobin;
            let mut sim = Simulation::new(&p, &roster, &mut pol, &config).unwrap();
            sim.enable_decision_trace(64);
            let out = sim.run_to_completion().unwrap();
            let retired: Vec<(u64, f64)> = out
                .decision_trace
                .expect("trace was attached")
                .records()
                .filter_map(|r| match r.event {
                    TraceEvent::Retirement { id, t } => Some((id, t)),
                    _ => None,
                })
                .collect();
            assert_eq!(retired, [(0, 5.0), (1, 5.0)]);
        }
    }

    /// A `run_until` drive asks the policy for its next wakeup once per
    /// event: the bound, idle and stall checks and the event itself share
    /// one scan.
    #[test]
    fn run_until_asks_for_the_next_wakeup_once_per_event() {
        struct Counting {
            inner: MinDilation,
            wakeups: std::cell::Cell<usize>,
        }
        impl OnlinePolicy for Counting {
            fn name(&self) -> String {
                self.inner.name()
            }
            fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
                self.inner.allocate_into(ctx, scratch);
            }
            fn next_wakeup(&self, now: Time) -> Option<Time> {
                self.wakeups.set(self.wakeups.get() + 1);
                self.inner.next_wakeup(now)
            }
        }
        let p = platform();
        let config = SimConfig::default();
        let apps: Vec<AppSpec> = (0..4).map(|id| app(id, 3)).collect();
        let mut pol = Counting {
            inner: MinDilation,
            wakeups: std::cell::Cell::new(0),
        };
        let mut sim = Simulation::new(&p, &apps, &mut pol, &config).unwrap();
        assert_eq!(sim.run_until(Time::INFINITY).unwrap(), RunStatus::Finished);
        let events = sim.events();
        drop(sim);
        assert!(events > 0);
        assert_eq!(pol.wakeups.get(), events);
    }
}

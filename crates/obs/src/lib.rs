//! Workspace-wide observability layer.
//!
//! Three facilities, one crate, shared by the engine, the serve daemon
//! and the campaign shards:
//!
//! * [`registry`] — a lock-free metrics registry: monotonic
//!   [`Counter`]s, [`Gauge`]s and fixed log-bucketed [`Histogram`]s.
//!   Registration takes a `Mutex` once; every subsequent observation is
//!   a relaxed atomic op on a pre-registered handle, so the daemon
//!   request path can record without allocating or blocking.
//!   [`Registry::snapshot`] freezes the whole catalog into a
//!   serializable [`MetricsSnapshot`] (text or JSON rendering).
//!
//! * [`timing`] — a [`Stopwatch`] that records elapsed nanoseconds into
//!   a histogram: the serve daemon's per-request and journal latencies
//!   and the shards' per-block wall time.
//!
//! * [`trace`] — a bounded, deterministic *decision trace*: a ring of
//!   structured scheduling events ([`TraceEvent`]: admission, grant
//!   set, capacity-screen fallback, retirement, policy wakeup, journal
//!   flush) with absolute sequence numbers, exportable as JSONL and
//!   parseable back bit-for-bit (floats use the
//!   [`iosched_model::lossless`] encoding). Observation-only by
//!   contract: attaching a trace never changes simulation results.
//!
//! The repository's speed is measured elsewhere: `perfbench/` holds the
//! end-to-end and per-layer benchmark, and the allocation, latency and
//! overhead bars are `#[ignore]`d tests (`tests/perf_bars.rs`,
//! `tests/obs_identity.rs`) run in release mode.

pub mod registry;
pub mod timing;
pub mod trace;

pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use timing::Stopwatch;
pub use trace::{DecisionTrace, TraceEvent, TraceRecord};

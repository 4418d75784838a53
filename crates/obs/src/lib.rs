//! Workspace-wide observability layer.
//!
//! Three facilities, one crate, shared by the engine, the serve daemon
//! and the campaign shards:
//!
//! * [`registry`] — metrics as plain values: a [`HistogramSnapshot`]
//!   (fixed log₂ buckets plus exact moments) that its owner records into
//!   through `&mut`, and a [`MetricsSnapshot`], the named catalog of
//!   counters, gauges and histograms every surface reports, sorted by
//!   name and serializable. Each recorder owns its values and runs on
//!   one thread, so nothing is shared, locked or atomic.
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

pub use registry::{HistogramSnapshot, MetricsSnapshot};
pub use timing::Stopwatch;
pub use trace::{DecisionTrace, TraceEvent, TraceRecord};

//! # iosched-model
//!
//! Platform and application model for *"Scheduling the I/O of HPC
//! applications under congestion"* (Gainaru, Aupy, Benoit, Cappello, Robert,
//! Snir — IPDPS 2015).
//!
//! This crate is the shared vocabulary of the workspace. It contains no
//! scheduling logic; it defines:
//!
//! * strongly-typed units ([`Time`], [`Bytes`], [`Bw`]) with the
//!   floating-point tolerance discipline used everywhere else
//!   ([`units::EPS`]),
//! * the platform model of §2 of the paper ([`Platform`]): `N` unit-speed
//!   processors with per-processor I/O bandwidth `b` and a centralized I/O
//!   system of bandwidth `B`, optionally fronted by a burst buffer,
//! * the application model ([`AppSpec`]): released at `r_k`, running on
//!   `β(k)` dedicated processors, executing instances of `w` units of
//!   computation followed by `vol_io` bytes of I/O,
//! * progress accounting ([`progress::AppProgress`]) implementing the
//!   application efficiency `ρ̃(k)(t)` and its congestion-free optimum
//!   `ρ(k)(t)`,
//! * the two optimization objectives of §2.2
//!   ([`objectives::ObjectiveReport`]),
//! * descriptive statistics used by every experiment ([`stats::Summary`]),
//! * the JSONL plumbing shared by the on-disk formats: lossless floats
//!   ([`lossless`]) and the append-only log framing ([`append_log`]).
//!
//! ## Quick example
//!
//! ```
//! use iosched_model::{AppSpec, Platform, Time, Bytes};
//!
//! let platform = Platform::intrepid();
//! let app = AppSpec::periodic(0, Time::ZERO, 2_048, Time::secs(100.0),
//!                             Bytes::gib(512.0), 10);
//! // Dedicated-mode I/O time of one instance: vol / min(β·b, B).
//! let tio = platform.dedicated_io_time(app.procs(), app.instance(0).vol);
//! assert!(tio > Time::ZERO);
//! ```

pub mod app;
pub mod append_log;
pub mod error;
pub mod interference;
pub mod lossless;
pub mod objectives;
pub mod platform;
pub mod progress;
pub mod stats;
pub mod units;

pub use app::{AppId, AppSpec, Instance, InstancePattern};
pub use error::ModelError;
pub use interference::Interference;
pub use objectives::{AppOutcome, ObjectiveAccumulator, ObjectiveReport};
pub use platform::{BurstBufferSpec, Platform};
pub use progress::AppProgress;
pub use stats::Summary;
pub use units::{Bw, Bytes, Time, EPS};

//! # iosched-sim
//!
//! Fluid discrete-event simulator for HPC I/O scheduling — the substrate
//! on which every evaluation of *"Scheduling the I/O of HPC applications
//! under congestion"* (IPDPS 2015) runs.
//!
//! The model is *fluid*: between two scheduling events each transferring
//! application receives a constant bandwidth, remaining volumes decay
//! linearly and event times are computed in closed form. The engine is an
//! explicit state machine ([`engine::Simulation`]) with a
//! `new()/step()/run_to_completion()` lifecycle — [`engine::simulate`] is
//! the one-shot wrapper — that drives any
//! [`iosched_core::policy::OnlinePolicy`] and optionally:
//!
//! * routes I/O through a **burst buffer** with fluid fill/drain dynamics
//!   and back-pressure ([`burst_buffer::BurstBufferState`]) — used to model
//!   the native Intrepid/Mira/Vesta schedulers of §4.4/§5,
//! * applies a **disk-locality interference** penalty to concurrent
//!   streams ([`iosched_model::Interference`]) — the Fig. 1 effect,
//! * records a full piecewise-constant allocation trace
//!   ([`trace::BandwidthTrace`]) whose validator replays every §2.1
//!   constraint.
//!
//! ```
//! use iosched_model::{AppSpec, Bytes, Platform, Time};
//! use iosched_core::heuristics::MinDilation;
//! use iosched_sim::{simulate, SimConfig};
//!
//! let platform = Platform::vesta();
//! let apps = vec![
//!     AppSpec::periodic(0, Time::ZERO, 256, Time::secs(60.0), Bytes::gib(100.0), 5),
//!     AppSpec::periodic(1, Time::ZERO, 512, Time::secs(30.0), Bytes::gib(200.0), 5),
//! ];
//! let out = simulate(&platform, &apps, &mut MinDilation, &SimConfig::default()).unwrap();
//! assert!(out.report.dilation >= 1.0);
//! ```

pub mod burst_buffer;
pub mod clock;
pub mod engine;
pub mod error;
pub mod external_load;
pub mod outcome;
pub mod periodic_exec;
pub mod state;
pub mod steady;
pub mod telemetry;
pub mod trace;

pub use clock::VirtualClock;
pub use engine::{
    simulate, simulate_open, simulate_stream, RunStatus, SimConfig, Simulation, StepStatus,
};
pub use error::SimError;
pub use external_load::ExternalLoad;
pub use outcome::SimOutcome;
pub use periodic_exec::{replay_apps, unroll_report, TimetablePolicy};
pub use steady::SteadySummary;
pub use telemetry::{Telemetry, TelemetrySample, TelemetrySummary};
pub use trace::{BandwidthTrace, TraceSegment};

// Decision-trace vocabulary, re-exported so engine embedders (the
// daemon, the CLI) need no direct `iosched-obs` dependency to consume
// [`Simulation::enable_decision_trace`].
pub use iosched_obs::{DecisionTrace, TraceEvent, TraceRecord};

//! # iosched-ior
//!
//! A real-thread re-implementation of the paper's §5 experimental setup:
//! the modified IOR benchmark on Argonne's Vesta.
//!
//! "We modified the IOR benchmark by splitting its set of processes into
//! groups running independently on different nodes, where each group
//! represents a different application. One separate thread acts as the
//! scheduler and receives I/O requests for all groups […] each application
//! process sends a request to the scheduler thread each time it needs to
//! write some I/O volume."
//!
//! This crate reproduces that architecture with OS threads:
//!
//! * one thread per application group runs the IOR loop — sleep for the
//!   (scaled) compute phase, send a `Request` to the scheduler, block
//!   until the matching `Complete` arrives ([`app_thread`]),
//! * one scheduler thread owns the parallel file system: it applies any
//!   [`iosched_core::policy::OnlinePolicy`] to the outstanding requests,
//!   tracks fluid transfer progress in *real* (scaled) time, and wakes up
//!   exactly at predicted completions ([`scheduler`]),
//! * an accelerated [`iosched_sim::VirtualClock`] (the serve daemon's
//!   clock) maps wall-clock time to simulated seconds so a multi-hour
//!   Vesta run takes a fraction of a second of real time.
//!
//! Everything the paper measures on Vesta is measured here: SysEfficiency
//! and Dilation per scenario (Fig. 15), per-application dilations
//! (Fig. 16), and the protocol overhead of running the scheduler at all
//! (Fig. 14, via [`overhead::measure_overhead`]).
//!
//! The substitution (real GPFS → fluid rate allocator on a scaled clock)
//! keeps what Fig. 14 measures: the scheduling *protocol* and its costs
//! are real; only the disk is simulated.

pub mod app_thread;
pub mod harness;
pub mod overhead;
pub mod protocol;
pub mod scheduler;

pub use harness::{run_ior, IorConfig, IorOutcome};
pub use overhead::{measure_overhead, OverheadReport};

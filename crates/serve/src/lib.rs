//! # iosched-serve
//!
//! The scheduler as a long-lived service: a daemon wrapping the
//! open-admission engine of `iosched-sim` behind a line-delimited JSON
//! protocol (stdin and/or a Unix-domain socket) — `submit`, `status`,
//! `telemetry`, `metrics`, `checkpoint`, `drain`, `shutdown`.
//!
//! The paper's scheduler is meant to run *online* inside a machine's
//! I/O middleware, deciding bandwidth shares as applications arrive
//! (§3.1's event-driven heuristics are explicitly designed for that
//! setting). Everything else in this repository drives the engine from
//! recorded or generated arrival sequences; this crate closes the loop
//! and lets external clients be the arrival process.
//!
//! Three properties define the subsystem, each pinned by tests:
//!
//! 1. **Reentrant admission** — submissions interleave with engine
//!    stepping through [`iosched_sim::Simulation::offer`]; the
//!    trajectory is a pure function of the accepted arrival sequence.
//! 2. **The journal is the checkpoint** — every accepted arrival is a
//!    flushed JSONL line *before* it is acknowledged; a SIGKILL at any
//!    instant loses nothing acknowledged, and a resumed session
//!    continues **bit-identically** to one never interrupted.
//! 3. **Wall time never leaks into results** — the virtual clock (real
//!    time, `--accelerate N`, or frozen at `N = 0`) only decides *how
//!    far* to drive between messages; bounded driving is bit-identical
//!    to free running.
//!
//! Modules, inside out: [`protocol`] (wire format), [`journal`]
//! (write-ahead arrival log + [`journal::ServeSpec`] manifest),
//! [`metrics`] (the daemon's observability catalog over `iosched-obs`),
//! [`session`] (the I/O-free state machine), [`daemon`] (threads,
//! sockets, the drive loop, plus the `--replay` verifier and
//! `--connect` client). The wall→virtual mapping is
//! [`iosched_sim::VirtualClock`], shared with the IOR harness.

pub mod daemon;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod session;

pub use daemon::{connect, replay, run_daemon, DaemonOptions};
pub use journal::{Journal, JournalContents, ServeSpec};
pub use metrics::ServeMetrics;
pub use protocol::{parse_request, Request, StatusReport};
pub use session::Session;

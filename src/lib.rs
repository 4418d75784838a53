//! # hpc-io-sched
//!
//! Umbrella crate for the reproduction of *"Scheduling the I/O of HPC
//! applications under congestion"* (Gainaru, Aupy, Benoit, Cappello,
//! Robert, Snir — IPDPS 2015).
//!
//! This crate re-exports the workspace members under short names and hosts
//! the runnable examples (`examples/`) and the cross-crate integration
//! tests (`tests/`). See `README.md` for the architecture overview.

pub use iosched_baselines as baselines;
pub use iosched_core as core;
pub use iosched_ior as ior;
pub use iosched_model as model;
pub use iosched_sim as sim;
pub use iosched_workload as workload;

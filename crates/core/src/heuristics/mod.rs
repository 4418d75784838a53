//! The online heuristics of §3.1.
//!
//! All four strategies share the same skeleton: order the pending
//! applications by a strategy-specific key, then run the greedy grant loop
//! ([`crate::policy::greedy_allocate`]). Each states its key once as a
//! [`crate::policy::Ranked`] rank and decides through
//! `allocate_into_by_rank`, which selects only the applications the grant
//! loop consumes; its full order comes from the same rank through
//! `order_into_by_rank`. The [`Priority`] wrapper composes
//! with any of them, moving applications that already started their current
//! I/O to the front of the order (disk locality on spinning disks —
//! "solid-state drives do not present the problem", §3.1).

mod factory;
mod max_syseff;
mod min_dilation;
mod min_max;
mod priority;
mod round_robin;

pub use factory::{standard_policies, BasePolicy, PolicyKind};
pub use max_syseff::MaxSysEff;
pub use min_dilation::MinDilation;
pub use min_max::MinMax;
pub use priority::Priority;
pub use round_robin::RoundRobin;

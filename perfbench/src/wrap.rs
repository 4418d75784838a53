//! Forwarding wrappers the traced run puts around the program's policy
//! and stream source, so per-call time can be summed without touching
//! program code.

use crate::trace::Summed;
use iosched_core::policy::AllocScratch;
use iosched_core::{Allocation, OnlinePolicy, SchedContext};
use iosched_model::{AppId, AppSpec, Bw, Time};
use std::cell::Cell;
use std::time::Instant;

/// What a [`TimedPolicy`] saw over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// `allocate_into` calls.
    pub calls: u64,
    /// Time inside them.
    pub ns: u64,
    /// Pending applications summed over calls.
    pub pending: u64,
    /// Calls whose grants differ from the previous call's.
    pub changed: u64,
    /// `next_wakeup` calls.
    pub wakeups: u64,
}

impl PolicyStats {
    /// Accumulate another run's counts.
    pub fn add(&mut self, other: &Self) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.pending += other.pending;
        self.changed += other.changed;
        self.wakeups += other.wakeups;
    }

    /// The allocate calls as a summed child of the run span.
    #[must_use]
    pub fn summed(&self) -> Summed {
        Summed {
            name: "core.allocate",
            calls: self.calls,
            ns: self.ns,
        }
    }
}

/// An [`OnlinePolicy`] that forwards every call to `inner` and times
/// `allocate_into`, the entry point the engine drives.
pub struct TimedPolicy {
    inner: Box<dyn OnlinePolicy>,
    stats: PolicyStats,
    wakeups: Cell<u64>,
    previous: Vec<(AppId, Bw)>,
}

impl TimedPolicy {
    /// Wrap a built policy.
    #[must_use]
    pub fn new(inner: Box<dyn OnlinePolicy>) -> Self {
        Self {
            inner,
            stats: PolicyStats::default(),
            wakeups: Cell::new(0),
            previous: Vec::new(),
        }
    }

    /// Counts so far.
    #[must_use]
    pub fn stats(&self) -> PolicyStats {
        PolicyStats {
            wakeups: self.wakeups.get(),
            ..self.stats
        }
    }
}

impl OnlinePolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn order(&mut self, ctx: &SchedContext<'_>) -> Vec<usize> {
        self.inner.order(ctx)
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> Allocation {
        self.inner.allocate(ctx)
    }

    fn order_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        self.inner.order_into(ctx, scratch);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, scratch: &mut AllocScratch) {
        let start = Instant::now();
        self.inner.allocate_into(ctx, scratch);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.calls += 1;
        self.stats.ns += ns;
        self.stats.pending += ctx.pending.len() as u64;
        if scratch.alloc.grants != self.previous {
            self.stats.changed += 1;
            self.previous.clone_from(&scratch.alloc.grants);
        }
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.wakeups.set(self.wakeups.get() + 1);
        self.inner.next_wakeup(now)
    }
}

/// An application source that times each `next`.
pub struct TimedSource<I> {
    inner: I,
    /// Applications pulled.
    pub apps: u64,
    /// Time inside `next`, including the final `None`.
    pub ns: u64,
}

impl<I: Iterator<Item = AppSpec>> TimedSource<I> {
    /// Wrap a source.
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            apps: 0,
            ns: 0,
        }
    }

    /// The pulls as a summed child of the run span.
    #[must_use]
    pub fn summed(&self) -> Summed {
        Summed {
            name: "workload.stream",
            calls: self.apps,
            ns: self.ns,
        }
    }
}

impl<I: Iterator<Item = AppSpec>> Iterator for TimedSource<I> {
    type Item = AppSpec;

    fn next(&mut self) -> Option<AppSpec> {
        let start = Instant::now();
        let app = self.inner.next();
        self.ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.apps += u64::from(app.is_some());
        app
    }
}

/// An application source that records the host time between
/// consecutive pulls: one admission cycle, the engine's work from one
/// admitted application to the next plus the pull itself.
pub struct Stamped<I> {
    inner: I,
    last: Option<Instant>,
    /// Milliseconds between consecutive pulls, one per application.
    pub gaps_ms: Vec<f64>,
}

impl<I: Iterator<Item = AppSpec>> Stamped<I> {
    /// Wrap a source.
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            last: None,
            gaps_ms: Vec::new(),
        }
    }
}

impl<I: Iterator<Item = AppSpec>> Iterator for Stamped<I> {
    type Item = AppSpec;

    fn next(&mut self) -> Option<AppSpec> {
        let now = Instant::now();
        if let Some(last) = self.last.replace(now) {
            self.gaps_ms.push((now - last).as_secs_f64() * 1e3);
        }
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_bench::experiments::load_sweep::stream_10k;
    use iosched_bench::{PolicySpec, RunMetrics};
    use iosched_model::Platform;
    use iosched_sim::{simulate, simulate_open, simulate_stream, SimConfig, SimOutcome};
    use iosched_workload::{MixConfig, StopRule, WorkloadSpec};

    fn bits(out: &SimOutcome) -> (Vec<u64>, usize) {
        let m = RunMetrics::from_outcome(out);
        let opt = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        (
            vec![
                m.sys_efficiency.to_bits(),
                m.dilation.to_bits(),
                m.upper_limit.to_bits(),
                m.makespan_secs.to_bits(),
                opt(m.utilization),
                opt(m.queue),
                opt(m.stretch),
            ],
            out.events,
        )
    }

    #[test]
    fn wrapped_closed_runs_are_bit_identical() {
        let platform = Platform::intrepid();
        let apps = WorkloadSpec::Mix {
            config: MixConfig::fig6a(),
            seed: 3,
        }
        .materialize(&platform)
        .unwrap();
        let config = SimConfig::default();
        for name in ["mindilation", "priority-maxsyseff", "roundrobin"] {
            let spec = PolicySpec::parse(name).unwrap();
            let mut bare = spec.build(&platform, &apps).unwrap();
            let expected = simulate(&platform, &apps, bare.as_mut(), &config).unwrap();
            let mut timed = TimedPolicy::new(spec.build(&platform, &apps).unwrap());
            let got = simulate(&platform, &apps, &mut timed, &config).unwrap();
            assert_eq!(
                bits(&expected),
                bits(&got),
                "{name} diverged under the wrapper"
            );
            let stats = timed.stats();
            assert!(stats.calls > 0 && stats.changed <= stats.calls);
            assert_eq!(timed.name(), name);
        }
    }

    #[test]
    fn wrapped_periodic_policy_forwards_wakeups_bit_identically() {
        let platform = Platform::intrepid();
        let workload = WorkloadSpec::Stream {
            arrivals: iosched_workload::ArrivalProcess::Poisson { rate: 0.0008 },
            template: Box::new(WorkloadSpec::Congestion { seed: 0 }),
            stop: StopRule::Apps(40),
            seed: 1,
        };
        let apps = workload.materialize(&platform).unwrap();
        let config = SimConfig {
            telemetry: true,
            warmup: Time::secs(2000.0),
            ..SimConfig::default()
        };
        for name in ["periodic:cong:tmax=32", "control:pi"] {
            let spec = PolicySpec::parse(name).unwrap();
            let mut bare = spec.build(&platform, &apps).unwrap();
            let expected = simulate_open(&platform, &apps, bare.as_mut(), &config).unwrap();
            let mut timed = TimedPolicy::new(spec.build(&platform, &apps).unwrap());
            let got = simulate_open(&platform, &apps, &mut timed, &config).unwrap();
            assert_eq!(
                bits(&expected),
                bits(&got),
                "{name} diverged under the wrapper"
            );
            if name.starts_with("periodic") {
                assert!(timed.stats().wakeups > 0, "timetable wakeups not forwarded");
            }
        }
    }

    #[test]
    fn wrapped_stream_source_is_bit_identical() {
        let platform = Platform::intrepid();
        let WorkloadSpec::Stream {
            arrivals,
            template,
            seed,
            ..
        } = stream_10k()
        else {
            unreachable!("stream_10k is a stream")
        };
        let spec = WorkloadSpec::Stream {
            arrivals,
            template,
            stop: StopRule::Apps(300),
            seed,
        };
        let config = SimConfig {
            per_app_detail: false,
            ..SimConfig::default()
        };
        let policy = PolicySpec::parse("mindilation").unwrap();
        let mut bare = policy.build(&platform, &[]).unwrap();
        let expected = simulate_stream(
            &platform,
            spec.app_source(&platform).unwrap(),
            bare.as_mut(),
            &config,
        )
        .unwrap();
        let mut timed = TimedPolicy::new(policy.build(&platform, &[]).unwrap());
        let mut source = TimedSource::new(spec.app_source(&platform).unwrap());
        let got = simulate_stream(&platform, source.by_ref(), &mut timed, &config).unwrap();
        assert_eq!(bits(&expected), bits(&got));
        assert_eq!(source.apps, 300);
        assert!(source.ns > 0);

        let mut bare = policy.build(&platform, &[]).unwrap();
        let mut stamped = Stamped::new(spec.app_source(&platform).unwrap());
        let got = simulate_stream(&platform, stamped.by_ref(), bare.as_mut(), &config).unwrap();
        assert_eq!(bits(&expected), bits(&got));
        assert_eq!(
            stamped.gaps_ms.len(),
            300,
            "one admission cycle per application"
        );
    }
}

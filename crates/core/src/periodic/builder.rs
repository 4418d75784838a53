//! Greedy instance insertion (§3.2.3).
//!
//! "Adding greedily an instance of application App(k) into the schedule
//! means that the heuristic tries to find the first instant in the period
//! where vol_io can be executed contiguously with a constant bandwidth
//! while matching the various constraints."
//!
//! The builder keeps, per application, a *cursor*: the earliest time its
//! next compute chunk may start (the end of the previous instance's I/O —
//! compute resources are dedicated, so computing immediately is always
//! optimal). Inserting an instance places compute `[cursor, cursor+w)` and
//! then asks the [`super::BandwidthProfile`] for the first contiguous
//! window after `cursor+w` that fits the transfer. Bandwidth selection
//! tries the application's maximum `min(β·b, B)` first and halves it up to
//! three times (a longer, thinner transfer often fits where a full-rate one
//! does not); this ladder is an implementation choice the paper leaves
//! open ("a constant bandwidth").
//!
//! Applications with bit-identical `(procs, work, vol)` share a *shape*;
//! once an insertion of a shape fails from some cursor, the builder
//! refuses every later insertion of that shape from a cursor at least as
//! late without scanning the profile again (see
//! [`ScheduleBuilder::try_insert`]).

use super::profile::BandwidthProfile;
use super::schedule::{AppPlan, PeriodicSchedule, PlannedInstance};
use iosched_model::{AppId, AppSpec, Bw, Bytes, ModelError, Platform, Time};
use serde::{Deserialize, Serialize};

/// Safety cap on instances of one application per period; prevents
/// pathological periods from degenerating into unbounded insertion loops.
pub(super) const MAX_INSTANCES_PER_APP: usize = 100_000;

/// How many times the bandwidth ladder halves the request.
const BW_LADDER_STEPS: u32 = 3;

/// A periodic application as the §3.2 scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodicAppSpec {
    /// Which application.
    pub id: AppId,
    /// `β(k)`.
    pub procs: u64,
    /// `w(k)`.
    pub work: Time,
    /// `vol_io(k)`.
    pub vol: Bytes,
}

impl PeriodicAppSpec {
    /// Construct directly.
    #[must_use]
    pub fn new(id: impl Into<AppId>, procs: u64, work: Time, vol: Bytes) -> Self {
        Self {
            id: id.into(),
            procs,
            work,
            vol,
        }
    }

    /// Extract the periodic profile of an [`AppSpec`].
    ///
    /// Fails when the application is not periodic — the periodic scheduler
    /// of §3.2 is only defined for periodic applications.
    pub fn from_app(app: &AppSpec) -> Result<Self, ModelError> {
        if !app.pattern().is_periodic() {
            return Err(ModelError::InvalidApp(format!(
                "{} is not periodic; the periodic scheduler requires w(k,i) = w(k)",
                app.id()
            )));
        }
        let inst = app.instance(0);
        Ok(Self {
            id: app.id(),
            procs: app.procs(),
            work: inst.work,
            vol: inst.vol,
        })
    }

    /// Dedicated-mode I/O time on `platform`.
    #[must_use]
    pub fn time_io(&self, platform: &Platform) -> Time {
        platform.dedicated_io_time(self.procs, self.vol)
    }

    /// Congestion-free instance span `w + time_io`.
    #[must_use]
    pub fn span(&self, platform: &Platform) -> Time {
        self.work + self.time_io(platform)
    }
}

/// Incremental periodic-schedule builder over one period.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    period: Time,
    total_bw: Bw,
    profile: BandwidthProfile,
    apps: Vec<PeriodicAppSpec>,
    max_bw: Vec<Bw>,
    cursors: Vec<Time>,
    plans: Vec<AppPlan>,
    failed: FailedFits,
}

/// The earliest cursor each application shape has failed to fit from.
#[derive(Debug, Clone)]
struct FailedFits {
    /// Per application: its shape's slot in `from`.
    shape: Vec<usize>,
    /// Per shape: the smallest cursor an insertion failed from (`+∞`
    /// until one does).
    from: Vec<f64>,
}

impl FailedFits {
    /// Group `apps` by the bits of `(procs, work, vol)`.
    fn new(apps: &[PeriodicAppSpec]) -> Self {
        let key = |a: &PeriodicAppSpec| (a.procs, a.work.get().to_bits(), a.vol.get().to_bits());
        let mut order: Vec<usize> = (0..apps.len()).collect();
        order.sort_unstable_by_key(|&i| key(&apps[i]));
        let mut shape = vec![0; apps.len()];
        let mut from = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            if k == 0 || key(&apps[order[k - 1]]) != key(&apps[i]) {
                from.push(f64::INFINITY);
            }
            shape[i] = from.len() - 1;
        }
        Self { shape, from }
    }

    /// True when application `idx`'s shape already failed from a cursor
    /// no later than `cursor`.
    fn known(&self, idx: usize, cursor: Time) -> bool {
        cursor.get() >= self.from[self.shape[idx]]
    }

    /// Record that application `idx` failed to fit from `cursor`.
    fn record(&mut self, idx: usize, cursor: Time) {
        let from = &mut self.from[self.shape[idx]];
        *from = from.min(cursor.get());
    }
}

impl ScheduleBuilder {
    /// Start an empty schedule of period `period` for `apps` on `platform`.
    ///
    /// # Panics
    /// Panics if `period ≤ 0`.
    #[must_use]
    pub fn new(platform: &Platform, apps: &[PeriodicAppSpec], period: Time) -> Self {
        assert!(period.get() > 0.0, "period must be positive");
        let max_bw = apps.iter().map(|a| platform.app_max_bw(a.procs)).collect();
        let plans = apps
            .iter()
            .map(|a| AppPlan {
                app: a.id,
                procs: a.procs,
                work: a.work,
                vol: a.vol,
                instances: Vec::new(),
            })
            .collect();
        Self {
            period,
            total_bw: platform.total_bw,
            profile: BandwidthProfile::new(period, platform.total_bw),
            apps: apps.to_vec(),
            max_bw,
            cursors: vec![Time::ZERO; apps.len()],
            plans,
            failed: FailedFits::new(apps),
        }
    }

    /// The period being filled.
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// Number of instances currently scheduled for app index `idx`.
    #[must_use]
    pub fn n_per(&self, idx: usize) -> usize {
        self.plans[idx].instances.len()
    }

    /// Try to insert the next instance of application index `idx`.
    /// Returns `true` on success; `false` when nothing fits in the
    /// remaining period (the application is *saturated* for this period).
    ///
    /// A failure is remembered per application shape — the bits of
    /// `(procs, work, vol)` — with the cursor it failed from; a later
    /// call for an application of the same shape whose cursor is at
    /// least that late returns `false` without scanning. This is exact:
    /// within one builder availability only shrinks (reservations
    /// subtract, splits keep values), a later earliest start only removes
    /// windows, and the ladder rungs, the transfer durations and the
    /// compute-end check depend only on the shape and the cursor. Hitting
    /// the per-application instance cap is not remembered: it depends on
    /// the application's own `n_per`, not on its shape.
    pub fn try_insert(&mut self, idx: usize) -> bool {
        if self.plans[idx].instances.len() >= MAX_INSTANCES_PER_APP {
            return false;
        }
        let cursor = self.cursors[idx];
        if self.failed.known(idx, cursor) {
            return false;
        }
        let fitted = self.fit(idx);
        if !fitted {
            self.failed.record(idx, cursor);
        }
        fitted
    }

    /// Place the next instance of application index `idx` from its
    /// cursor, scanning the profile for its transfer.
    fn fit(&mut self, idx: usize) -> bool {
        let app = self.apps[idx];
        let compute_start = self.cursors[idx];
        let compute_end = compute_start + app.work;
        if compute_end.approx_gt(self.period) {
            return false;
        }

        if app.vol.get() <= 0.0 {
            // Pure-compute instance: no reservation needed.
            let index = self.plans[idx].instances.len();
            self.plans[idx].instances.push(PlannedInstance {
                index,
                compute_start,
                compute_end,
                io_start: compute_end,
                io_end: compute_end,
                io_bw: Bw::ZERO,
            });
            self.cursors[idx] = compute_end;
            return true;
        }

        // Bandwidth ladder: full rate first, then thinner/longer windows.
        let full = self.max_bw[idx].min(self.total_bw);
        for step in 0..=BW_LADDER_STEPS {
            let bw = full / f64::from(1u32 << step);
            let dur = app.vol / bw;
            if !dur.is_finite() {
                continue;
            }
            let Some(start) = self.profile.first_fit(compute_end, dur, bw) else {
                continue;
            };
            let end = start + dur;
            if end.approx_gt(self.period) {
                continue;
            }
            self.profile
                .reserve(start, end, bw)
                .expect("first_fit returned an infeasible window");
            let index = self.plans[idx].instances.len();
            self.plans[idx].instances.push(PlannedInstance {
                index,
                compute_start,
                compute_end,
                io_start: start,
                io_end: end,
                io_bw: bw,
            });
            self.cursors[idx] = end;
            return true;
        }
        false
    }

    /// [`ScheduleBuilder::try_insert`] with every remembered failure
    /// forgotten first: the unmemoized reference the tests compare with.
    #[cfg(test)]
    pub(super) fn try_insert_unmemoized(&mut self, idx: usize) -> bool {
        self.failed.from.fill(f64::INFINITY);
        self.try_insert(idx)
    }

    /// Finish and return the schedule.
    #[must_use]
    pub fn build(self) -> PeriodicSchedule {
        PeriodicSchedule {
            period: self.period,
            plans: self.plans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::new("test", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0))
    }

    /// w = 8 s, vol = 20 GiB on 100 procs → tio = 2 s at full 10 GiB/s.
    fn app(id: usize) -> PeriodicAppSpec {
        PeriodicAppSpec::new(id, 100, Time::secs(8.0), Bytes::gib(20.0))
    }

    #[test]
    fn single_app_packs_at_full_rate() {
        let p = platform();
        let mut b = ScheduleBuilder::new(&p, &[app(0)], Time::secs(30.0));
        assert!(b.try_insert(0)); // [0,8) compute, [8,10) I/O
        assert!(b.try_insert(0)); // [10,18) compute, [18,20) I/O
        assert!(b.try_insert(0)); // [20,28) compute, [28,30) I/O
        assert!(!b.try_insert(0)); // no room for a fourth
        let s = b.build();
        s.validate(&p).unwrap();
        assert_eq!(s.n_per(AppId(0)), 3);
        let inst = &s.plans[0].instances[1];
        assert!(inst.compute_start.approx_eq(Time::secs(10.0)));
        assert!(inst.io_bw.approx_eq(Bw::gib_per_sec(10.0)));
    }

    #[test]
    fn two_apps_serialize_their_io() {
        let p = platform();
        let mut b = ScheduleBuilder::new(&p, &[app(0), app(1)], Time::secs(12.0));
        assert!(b.try_insert(0));
        assert!(b.try_insert(1));
        let s = b.build();
        s.validate(&p).unwrap();
        // Both computes run [0, 8); both need 10 GiB/s for 2 s. App 1's
        // transfer must wait for app 0's: [8, 10) then [10, 12).
        let io0 = s.plans[0].instances[0];
        let io1 = s.plans[1].instances[0];
        assert!(io0.io_start.approx_eq(Time::secs(8.0)));
        assert!(io1.io_start.approx_eq(Time::secs(10.0)));
    }

    #[test]
    fn ladder_falls_back_to_half_rate() {
        let p = platform();
        // App 1 needs exactly half the PFS: 50 procs → 5 GiB/s cap.
        let small = PeriodicAppSpec::new(1, 50, Time::secs(2.0), Bytes::gib(10.0));
        // App 0 occupies 5 GiB/s for the whole period.
        let hog = PeriodicAppSpec::new(0, 50, Time::ZERO, Bytes::gib(50.0));
        let mut b = ScheduleBuilder::new(&p, &[hog, small], Time::secs(10.0));
        assert!(b.try_insert(0), "hog reserves 5 GiB/s over [0, 10)");
        assert!(
            b.try_insert(1),
            "small app should fit in the leftover 5 GiB/s"
        );
        let s = b.build();
        s.validate(&p).unwrap();
        let io = s.plans[1].instances[0];
        assert!(io.io_bw.approx_le(Bw::gib_per_sec(5.0)));
    }

    #[test]
    fn pure_compute_app_needs_no_bandwidth() {
        let p = platform();
        let compute_only = PeriodicAppSpec::new(0, 10, Time::secs(3.0), Bytes::ZERO);
        let mut b = ScheduleBuilder::new(&p, &[compute_only], Time::secs(10.0));
        assert!(b.try_insert(0));
        assert!(b.try_insert(0));
        assert!(b.try_insert(0));
        assert!(!b.try_insert(0)); // 4×3 s > 10 s
        let s = b.build();
        s.validate(&p).unwrap();
        assert_eq!(s.n_per(AppId(0)), 3);
    }

    #[test]
    fn from_app_requires_periodicity() {
        use iosched_model::{AppSpec, Instance, InstancePattern};
        let periodic = AppSpec::periodic(0, Time::ZERO, 10, Time::secs(1.0), Bytes::gib(1.0), 5);
        assert!(PeriodicAppSpec::from_app(&periodic).is_ok());
        let aperiodic = AppSpec::new(
            0,
            Time::ZERO,
            10,
            InstancePattern::Explicit(vec![
                Instance::new(Time::secs(1.0), Bytes::gib(1.0)),
                Instance::new(Time::secs(2.0), Bytes::gib(1.0)),
            ]),
        );
        assert!(PeriodicAppSpec::from_app(&aperiodic).is_err());
    }

    #[test]
    fn insert_fails_when_period_too_short() {
        let p = platform();
        let mut b = ScheduleBuilder::new(&p, &[app(0)], Time::secs(9.0));
        // Compute fits ([0,8)) but I/O needs [8,10) > period at any ladder
        // rate (even 1.25 GiB/s needs 16 s).
        assert!(!b.try_insert(0));
        assert_eq!(b.n_per(0), 0);
    }
}

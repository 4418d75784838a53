//! The application model of §2.1.
//!
//! Each application `App(k)` is released at time `r_k`, executes on `β(k)`
//! dedicated processors and consists of `n_tot(k)` *instances* that repeat
//! until the last one completes. Instance `I_i(k)` is `w(k,i)` units of
//! computation (executed at unit speed on dedicated resources, hence taking
//! exactly `w(k,i)` seconds) followed by a transfer of `vol_io(k,i)` bytes.
//!
//! *Periodic* applications (§2.1, §4.1) have constant `(w, vol)` across
//! instances; they are the common case in HPC (periodic checkpoints, S3D,
//! HOMME, GTC, Enzo, HACC, CM1 restart dumps). Non-periodic behaviour is
//! captured by [`InstancePattern::Explicit`], which §4.3 uses through the
//! *sensibility* perturbation.

use crate::error::ModelError;
use crate::platform::Platform;
use crate::units::{Bytes, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Most instances `n_tot(k)` one application may have. Progress
/// accounting keeps `n_tot + 1` prefix sums per application, and counts
/// arrive from untrusted files and protocol lines: without a bound, one
/// line can ask for more memory than the machine has. 10^7 instances
/// already exceed the engine's default event budget.
pub const MAX_INSTANCES: usize = 10_000_000;

/// Identifier of an application within a scenario (dense, 0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct AppId(pub usize);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "App({})", self.0)
    }
}

impl From<usize> for AppId {
    fn from(v: usize) -> Self {
        Self(v)
    }
}

/// One instance: a chunk of computation followed by an I/O transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// `w(k,i)`: units of computation (= seconds at unit speed).
    pub work: Time,
    /// `vol_io(k,i)`: bytes transferred after the computation.
    pub vol: Bytes,
}

impl Instance {
    /// Construct an instance.
    #[must_use]
    pub const fn new(work: Time, vol: Bytes) -> Self {
        Self { work, vol }
    }
}

/// The instance stream of an application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InstancePattern {
    /// `n_tot` identical instances — the periodic case.
    Periodic {
        /// `w(k)`: computation per instance.
        work: Time,
        /// `vol_io(k)`: I/O volume per instance.
        vol: Bytes,
        /// `n_tot(k)`: number of instances.
        count: usize,
    },
    /// Arbitrary per-instance values — the non-periodic case of §4.3.
    Explicit(Vec<Instance>),
}

impl InstancePattern {
    /// Number of instances `n_tot`.
    #[must_use]
    pub fn count(&self) -> usize {
        match self {
            Self::Periodic { count, .. } => *count,
            Self::Explicit(v) => v.len(),
        }
    }

    /// The `i`-th instance (0-based). Panics if out of range.
    #[must_use]
    pub fn instance(&self, i: usize) -> Instance {
        match self {
            Self::Periodic { work, vol, count } => {
                assert!(i < *count, "instance index {i} out of range {count}");
                Instance::new(*work, *vol)
            }
            Self::Explicit(v) => v[i],
        }
    }

    /// True when every instance is identical.
    #[must_use]
    pub fn is_periodic(&self) -> bool {
        match self {
            Self::Periodic { .. } => true,
            Self::Explicit(v) => v.windows(2).all(|w| w[0] == w[1]),
        }
    }

    /// Iterator over all instances.
    pub fn iter(&self) -> impl Iterator<Item = Instance> + '_ {
        (0..self.count()).map(move |i| self.instance(i))
    }
}

/// A complete application description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    id: AppId,
    /// `r_k`: release time.
    release: Time,
    /// `β(k)`: dedicated processors.
    procs: u64,
    pattern: InstancePattern,
}

impl AppSpec {
    /// Construct an application with an arbitrary instance stream.
    #[must_use]
    pub fn new(id: impl Into<AppId>, release: Time, procs: u64, pattern: InstancePattern) -> Self {
        Self {
            id: id.into(),
            release,
            procs,
            pattern,
        }
    }

    /// Construct a periodic application (`count` identical instances).
    #[must_use]
    pub fn periodic(
        id: impl Into<AppId>,
        release: Time,
        procs: u64,
        work: Time,
        vol: Bytes,
        count: usize,
    ) -> Self {
        Self::new(
            id,
            release,
            procs,
            InstancePattern::Periodic { work, vol, count },
        )
    }

    /// Application identifier.
    #[must_use]
    pub fn id(&self) -> AppId {
        self.id
    }

    /// Re-number the application (used when assembling scenarios).
    pub fn set_id(&mut self, id: impl Into<AppId>) {
        self.id = id.into();
    }

    /// Release time `r_k`.
    #[must_use]
    pub fn release(&self) -> Time {
        self.release
    }

    /// Set the release time (used by scenario generators to add jitter).
    pub fn set_release(&mut self, release: Time) {
        self.release = release;
    }

    /// Dedicated processor count `β(k)`.
    #[must_use]
    pub fn procs(&self) -> u64 {
        self.procs
    }

    /// The instance stream.
    #[must_use]
    pub fn pattern(&self) -> &InstancePattern {
        &self.pattern
    }

    /// Number of instances `n_tot(k)`.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.pattern.count()
    }

    /// The `i`-th instance.
    #[must_use]
    pub fn instance(&self, i: usize) -> Instance {
        self.pattern.instance(i)
    }

    /// Total computation `Σ_i w(k,i)`.
    #[must_use]
    pub fn total_work(&self) -> Time {
        self.pattern.iter().map(|inst| inst.work).sum()
    }

    /// Total I/O volume `Σ_i vol_io(k,i)`.
    #[must_use]
    pub fn total_vol(&self) -> Bytes {
        self.pattern.iter().map(|inst| inst.vol).sum()
    }

    /// Congestion-free makespan on `platform`:
    /// `Σ_i (w(k,i) + time_io(k,i))` (all I/O in dedicated mode).
    #[must_use]
    pub fn dedicated_span(&self, platform: &Platform) -> Time {
        self.pattern
            .iter()
            .map(|inst| inst.work + platform.dedicated_io_time(self.procs, inst.vol))
            .sum()
    }

    /// The optimal application efficiency `ρ(k)` over the whole run
    /// (constant for periodic applications):
    /// `Σ w / Σ (w + time_io)` (§2.2).
    #[must_use]
    pub fn optimal_efficiency(&self, platform: &Platform) -> f64 {
        let work = self.total_work();
        let span = self.dedicated_span(platform);
        if span.get() <= 0.0 {
            1.0
        } else {
            work / span
        }
    }

    /// Validate application invariants.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.procs == 0 {
            return Err(ModelError::InvalidApp(format!(
                "{} must use at least one processor",
                self.id
            )));
        }
        if self.instance_count() == 0 {
            return Err(ModelError::InvalidApp(format!(
                "{} must have at least one instance",
                self.id
            )));
        }
        if self.instance_count() > MAX_INSTANCES {
            return Err(ModelError::InvalidApp(format!(
                "{} has {} instances, more than the {MAX_INSTANCES} allowed",
                self.id,
                self.instance_count()
            )));
        }
        if !self.release.is_finite() || self.release.get() < 0.0 {
            return Err(ModelError::InvalidApp(format!(
                "{} release time must be finite and non-negative, got {}",
                self.id, self.release
            )));
        }
        let check = |i: usize, work: Time, vol: Bytes| -> Result<(), ModelError> {
            if !work.is_finite() || work.get() < 0.0 {
                return Err(ModelError::InvalidApp(format!(
                    "{} instance {i} has invalid work {work}",
                    self.id
                )));
            }
            if !vol.is_finite() || vol.get() < 0.0 {
                return Err(ModelError::InvalidApp(format!(
                    "{} instance {i} has invalid I/O volume {vol}",
                    self.id
                )));
            }
            if work.get() <= 0.0 && vol.get() <= 0.0 {
                return Err(ModelError::InvalidApp(format!(
                    "{} instance {i} has neither work nor I/O",
                    self.id
                )));
            }
            Ok(())
        };
        // A periodic pattern repeats one instance: checking it once is
        // enough, and must NOT loop — `count` is attacker-controlled in
        // online-submission contexts, and iterating 10^19 identical
        // instances would hang validation.
        match &self.pattern {
            InstancePattern::Periodic { work, vol, .. } => check(0, *work, *vol)?,
            InstancePattern::Explicit(instances) => {
                for (i, inst) in instances.iter().enumerate() {
                    check(i, inst.work, inst.vol)?;
                }
            }
        }
        Ok(())
    }
}

/// Validate a full scenario: every application valid, ids dense and unique
/// (any order — the engine keys everything on `AppId`, so a shuffled
/// roster describes the same closed system), and the processor assignment
/// feasible (`Σ β(k) ≤ N` — the paper assumes every application runs on
/// *dedicated* resources).
pub fn validate_scenario(platform: &Platform, apps: &[AppSpec]) -> Result<(), ModelError> {
    platform.validate()?;
    let mut seen = vec![false; apps.len()];
    let mut total_procs: u64 = 0;
    for app in apps {
        app.validate()?;
        match seen.get_mut(app.id().0) {
            Some(slot) if !*slot => *slot = true,
            Some(_) => {
                return Err(ModelError::InvalidApp(format!(
                    "duplicate application id {}",
                    app.id()
                )))
            }
            None => {
                return Err(ModelError::InvalidApp(format!(
                    "application ids must be dense in 0..{}: found {}",
                    apps.len(),
                    app.id()
                )))
            }
        }
        total_procs = total_procs.saturating_add(app.procs());
    }
    if total_procs > platform.procs {
        return Err(ModelError::InfeasibleAssignment(format!(
            "applications require {total_procs} processors but the platform has {}",
            platform.procs
        )));
    }
    Ok(())
}

/// One-application slice of the open-system contract — the single
/// encoding shared by [`validate_open_scenario`] (whole-slice) and the
/// stream engine's incremental admission: the application is
/// individually valid and individually feasible (`β(k) ≤ N`), its id is
/// dense at `position` in release order, and its release does not
/// precede `last_release`.
pub fn validate_open_arrival(
    platform: &Platform,
    app: &AppSpec,
    position: usize,
    last_release: Time,
) -> Result<(), ModelError> {
    app.validate()?;
    if app.id().0 != position {
        return Err(ModelError::InvalidApp(format!(
            "open-stream ids must be dense in release order: position {position} holds {}",
            app.id()
        )));
    }
    if app.procs() > platform.procs {
        return Err(ModelError::InfeasibleAssignment(format!(
            "{} requires {} processors but the platform has {}",
            app.id(),
            app.procs(),
            platform.procs
        )));
    }
    if app.release() < last_release {
        return Err(ModelError::InvalidApp(format!(
            "open-stream releases must be non-decreasing: {} at {} after {}",
            app.id(),
            app.release(),
            last_release
        )));
    }
    Ok(())
}

/// Validate an *open-system* roster (a dynamic arrival stream): every
/// application passes [`validate_open_arrival`] at its position. The
/// closed `Σ β(k) ≤ N` budget deliberately does **not** apply — an open
/// stream time-shares the machine over its lifetime. Note the model
/// does not queue on processors either: arrivals start computing at
/// release unconditionally, so in a supercritical regime the
/// *concurrent* processor demand can exceed `N` too — saturation is
/// meant to be read off the I/O queue/stretch metrics, not a processor
/// limit.
pub fn validate_open_scenario(platform: &Platform, apps: &[AppSpec]) -> Result<(), ModelError> {
    platform.validate()?;
    let mut last_release = Time::ZERO;
    for (i, app) in apps.iter().enumerate() {
        validate_open_arrival(platform, app, i, last_release)?;
        last_release = app.release();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bw;

    fn test_platform() -> Platform {
        Platform::new("test", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0))
    }

    #[test]
    fn periodic_pattern_instances_identical() {
        let app = AppSpec::periodic(3, Time::ZERO, 10, Time::secs(5.0), Bytes::gib(1.0), 4);
        assert_eq!(app.instance_count(), 4);
        assert!(app.pattern().is_periodic());
        for i in 0..4 {
            let inst = app.instance(i);
            assert!(inst.work.approx_eq(Time::secs(5.0)));
            assert!(inst.vol.approx_eq(Bytes::gib(1.0)));
        }
        assert!(app.total_work().approx_eq(Time::secs(20.0)));
        assert!(app.total_vol().approx_eq(Bytes::gib(4.0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn periodic_pattern_bounds_checked() {
        let app = AppSpec::periodic(0, Time::ZERO, 1, Time::secs(1.0), Bytes::gib(1.0), 2);
        let _ = app.instance(2);
    }

    #[test]
    fn explicit_pattern_detects_periodicity() {
        let same =
            InstancePattern::Explicit(vec![Instance::new(Time::secs(1.0), Bytes::gib(1.0)); 3]);
        assert!(same.is_periodic());
        let diff = InstancePattern::Explicit(vec![
            Instance::new(Time::secs(1.0), Bytes::gib(1.0)),
            Instance::new(Time::secs(2.0), Bytes::gib(1.0)),
        ]);
        assert!(!diff.is_periodic());
    }

    #[test]
    fn dedicated_span_and_optimal_efficiency() {
        let p = test_platform();
        // 100 procs → app bw = min(10, 10) = 10 GiB/s.
        // Instance: w = 8 s, vol = 20 GiB → tio = 2 s. ρ = 8/10 = 0.8.
        let app = AppSpec::periodic(0, Time::ZERO, 100, Time::secs(8.0), Bytes::gib(20.0), 5);
        assert!(app
            .dedicated_span(&p)
            .approx_eq(Time::secs(5.0 * (8.0 + 2.0))));
        assert!((app.optimal_efficiency(&p) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn optimal_efficiency_of_pure_compute_is_one() {
        let p = test_platform();
        let app = AppSpec::periodic(0, Time::ZERO, 10, Time::secs(5.0), Bytes::ZERO, 3);
        assert!((app.optimal_efficiency(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_apps() {
        let good = AppSpec::periodic(0, Time::ZERO, 10, Time::secs(1.0), Bytes::gib(1.0), 1);
        good.validate().unwrap();

        let no_procs = AppSpec::periodic(0, Time::ZERO, 0, Time::secs(1.0), Bytes::gib(1.0), 1);
        assert!(no_procs.validate().is_err());

        let no_instances = AppSpec::periodic(0, Time::ZERO, 1, Time::secs(1.0), Bytes::gib(1.0), 0);
        assert!(no_instances.validate().is_err());

        let negative_release =
            AppSpec::periodic(0, Time::secs(-1.0), 1, Time::secs(1.0), Bytes::gib(1.0), 1);
        assert!(negative_release.validate().is_err());

        let empty_instance = AppSpec::periodic(0, Time::ZERO, 1, Time::ZERO, Bytes::ZERO, 1);
        assert!(empty_instance.validate().is_err());
    }

    #[test]
    fn validation_bounds_the_instance_count() {
        let app =
            |count| AppSpec::periodic(0, Time::ZERO, 1, Time::secs(1.0), Bytes::gib(1.0), count);
        app(MAX_INSTANCES).validate().unwrap();
        let err = app(MAX_INSTANCES + 1).validate().unwrap_err().to_string();
        assert!(err.contains("more than the 10000000 allowed"), "{err}");
        // 2^53, the largest integer a JSON number carries exactly: refused
        // before anything sizes a table by it.
        assert!(app(1 << 53).validate().is_err());
    }

    #[test]
    fn scenario_validation_checks_processor_budget() {
        let p = test_platform();
        let apps = vec![
            AppSpec::periodic(0, Time::ZERO, 600, Time::secs(1.0), Bytes::gib(1.0), 1),
            AppSpec::periodic(1, Time::ZERO, 500, Time::secs(1.0), Bytes::gib(1.0), 1),
        ];
        // 600 + 500 = 1100 > 1000 processors.
        assert!(matches!(
            validate_scenario(&p, &apps),
            Err(ModelError::InfeasibleAssignment(_))
        ));
    }

    #[test]
    fn scenario_validation_checks_dense_ids() {
        let p = test_platform();
        let apps = vec![AppSpec::periodic(
            7,
            Time::ZERO,
            1,
            Time::secs(1.0),
            Bytes::gib(1.0),
            1,
        )];
        assert!(validate_scenario(&p, &apps).is_err());
        // Duplicates are rejected too.
        let app = |id| AppSpec::periodic(id, Time::ZERO, 1, Time::secs(1.0), Bytes::gib(1.0), 1);
        assert!(validate_scenario(&p, &[app(0), app(0)]).is_err());
    }

    #[test]
    fn scenario_validation_accepts_any_permutation() {
        // A shuffled roster describes the same closed system: the ids
        // form a dense permutation, so validation passes in any order.
        let p = test_platform();
        let app = |id| AppSpec::periodic(id, Time::ZERO, 10, Time::secs(1.0), Bytes::gib(1.0), 1);
        validate_scenario(&p, &[app(2), app(0), app(1)]).unwrap();
    }

    #[test]
    fn open_scenario_validation_relaxes_the_budget_only() {
        let p = test_platform(); // 1,000 processors
        let app = |id, procs, rel| {
            AppSpec::periodic(
                id,
                Time::secs(rel),
                procs,
                Time::secs(1.0),
                Bytes::gib(1.0),
                1,
            )
        };
        // Σβ = 1,800 > 1,000: infeasible closed, fine as an open stream.
        let stream = [app(0, 600, 0.0), app(1, 600, 5.0), app(2, 600, 9.0)];
        assert!(validate_scenario(&p, &stream).is_err());
        validate_open_scenario(&p, &stream).unwrap();
        // A single application over the whole machine is still rejected.
        assert!(validate_open_scenario(&p, &[app(0, 1_200, 0.0)]).is_err());
        // Ids must be dense in release order, releases non-decreasing.
        assert!(validate_open_scenario(&p, &[app(1, 10, 0.0)]).is_err());
        let unsorted = [app(0, 10, 5.0), app(1, 10, 2.0)];
        assert!(validate_open_scenario(&p, &unsorted).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let app = AppSpec::new(
            2,
            Time::secs(10.0),
            64,
            InstancePattern::Explicit(vec![
                Instance::new(Time::secs(1.0), Bytes::gib(0.5)),
                Instance::new(Time::secs(2.0), Bytes::gib(1.5)),
            ]),
        );
        let j = serde_json::to_string(&app).unwrap();
        let back: AppSpec = serde_json::from_str(&j).unwrap();
        assert_eq!(app, back);
    }
}

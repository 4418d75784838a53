//! The scenario-aware policy registry: **one roster spanning the §3.1
//! online heuristics, the uncoordinated baselines and the §3.2 offline
//! periodic schedules**.
//!
//! A [`PolicyFactory`] is the two-stage, serializable description of a
//! scheduling policy:
//!
//! 1. **Parse / serde stage** — a factory is pure data with a canonical
//!    string form ([`PolicyFactory::parse`] / [`PolicyFactory::name`]):
//!    `"maxsyseff"`, `"priority-minmax-0.25"`, `"fairshare"`,
//!    `"periodic:cong"`, … The string *is* the serde representation, so
//!    report keys, CLI arguments and campaign JSON share one vocabulary.
//! 2. **Instantiate-for-scenario stage** — [`PolicyFactory::build`]
//!    receives the resolved [`Platform`] and the *materialized*
//!    application list and returns the runnable
//!    [`OnlinePolicy`]. Context-free policies (every §3.1 heuristic and
//!    baseline) ignore the scenario; policies that precompute
//!    per-workload state — today the [`PolicyFactory::Periodic`] family,
//!    which runs the §3.2.3 insertion + `(1+ε)` period search over the
//!    scenario's applications and replays the winning timetable — are
//!    thereby first-class roster members instead of hand-wired
//!    per-figure code.
//!
//! The split matters because stage 2 can be expensive (a period search)
//! and can *fail* (a non-periodic workload, a schedule that starves an
//! application): campaign files parse and validate eagerly at stage 1,
//! while stage 2 runs on the worker that already materialized the
//! workload — once per seed block, exactly where the apps live.
//!
//! ## The periodic grammar
//!
//! ```text
//! periodic:<cong|throu>[:<dilation|syseff>][:eps=<ε>][:tmax=<factor>]
//! ```
//!
//! `cong` (Insert-In-Schedule-Cong) defaults to the Dilation search
//! objective, `throu` (Insert-In-Schedule-Throu) to SysEfficiency — the
//! pairings of §3.2.3. `eps` (default 0.05) and `tmax` (default 10,
//! `Tmax = tmax·T₀`) tune the period search. [`PolicyFactory::name`]
//! prints only the non-default segments, and every printed name parses
//! back to the identical factory (f64 display round-trips exactly).
//!
//! ## The control grammar
//!
//! ```text
//! control:pi[:kp=K][:ki=I][:set=S][:win=W]
//! ```
//!
//! The closed-loop family ([`crate::control`]): a PI controller with
//! proportional gain `kp` (default 0.5), integral gain `ki` (default
//! 0.05 /s), delivered-utilization setpoint `set` (default 0.9, must be
//! in `(0, 1]`) and sensing window `win` seconds (default 30). The same
//! elision and exact-roundtrip rules as the periodic grammar apply.

use crate::baselines::{FairShare, Fcfs};
use crate::control::ControlPolicy;
use crate::heuristics::{BasePolicy, PolicyKind};
use crate::periodic::{
    InsertionHeuristic, PeriodSearch, PeriodicAppSpec, PeriodicObjective, PeriodicSchedule,
    TimetablePolicy,
};
use crate::policy::OnlinePolicy;
use iosched_model::{AppSpec, Platform};

/// Buildable description of a policy — everything a batch runner can
/// parse up front and instantiate fresh inside a worker thread once the
/// scenario is materialized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyFactory {
    /// One of the paper's §3.1 heuristics (MaxSysEff, MinMax-γ, …,
    /// ± Priority).
    Kind(PolicyKind),
    /// Uncoordinated max–min fair sharing (the native baseline's policy).
    FairShare,
    /// Strict first-come-first-served.
    Fcfs,
    /// A §3.2 periodic schedule, built for the scenario at instantiation
    /// time and replayed as a timetable.
    Periodic(PeriodicFactory),
    /// The adaptive closed-loop family ([`crate::control`]): a PI
    /// controller over the engine's congestion telemetry.
    Control(ControlFactory),
}

/// The closed-loop branch of the roster: the PI gains, the
/// delivered-utilization setpoint and the sensing window of a
/// [`ControlPolicy`].
///
/// Grammar: `control:pi[:kp=K][:ki=I][:set=S][:win=W]`, segments in that
/// canonical order, each elided from [`ControlFactory::name`] when it
/// equals the default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlFactory {
    /// Proportional gain (`kp=`, finite, ≥ 0).
    pub kp: f64,
    /// Integral gain per second (`ki=`, finite, ≥ 0).
    pub ki: f64,
    /// Delivered-utilization setpoint (`set=`, in `(0, 1]`).
    pub setpoint: f64,
    /// Sensing window / burst horizon in seconds (`win=`, positive).
    pub window: f64,
}

impl Default for ControlFactory {
    fn default() -> Self {
        Self {
            kp: ControlPolicy::DEFAULT_KP,
            ki: ControlPolicy::DEFAULT_KI,
            setpoint: ControlPolicy::DEFAULT_SETPOINT,
            window: ControlPolicy::DEFAULT_WINDOW_SECS,
        }
    }
}

impl ControlFactory {
    /// Override the proportional gain.
    #[must_use]
    pub fn with_kp(mut self, kp: f64) -> Self {
        self.kp = kp;
        self
    }

    /// Override the integral gain.
    #[must_use]
    pub fn with_ki(mut self, ki: f64) -> Self {
        self.ki = ki;
        self
    }

    /// Override the utilization setpoint.
    #[must_use]
    pub fn with_setpoint(mut self, setpoint: f64) -> Self {
        self.setpoint = setpoint;
        self
    }

    /// Override the sensing window (seconds).
    #[must_use]
    pub fn with_window(mut self, window: f64) -> Self {
        self.window = window;
        self
    }

    /// Check the knobs against what [`ControlPolicy::new`] accepts, with
    /// actionable messages (the grammar calls this, so parsing fails on
    /// the same inputs building would).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.kp.is_finite() && self.kp >= 0.0) {
            return Err(format!(
                "control kp {} must be finite and non-negative",
                self.kp
            ));
        }
        if !(self.ki.is_finite() && self.ki >= 0.0) {
            return Err(format!(
                "control ki {} must be finite and non-negative",
                self.ki
            ));
        }
        if !(self.setpoint.is_finite() && self.setpoint > 0.0 && self.setpoint <= 1.0) {
            return Err(format!(
                "control set {} must be a utilization in (0, 1]",
                self.setpoint
            ));
        }
        if !(self.window.is_finite() && self.window > 0.0) {
            return Err(format!(
                "control win {} must be a positive number of seconds",
                self.window
            ));
        }
        Ok(())
    }

    /// Instantiate the controller (context-free: the loop learns the
    /// scenario from the telemetry it observes).
    #[must_use]
    pub fn build(&self) -> ControlPolicy {
        ControlPolicy::new(self.kp, self.ki, self.setpoint, self.window).with_name(self.name())
    }

    /// The canonical name: non-default segments only, in grammar order.
    #[must_use]
    pub fn name(&self) -> String {
        let defaults = Self::default();
        let mut name = String::from("control:pi");
        if self.kp != defaults.kp {
            name.push_str(&format!(":kp={}", self.kp));
        }
        if self.ki != defaults.ki {
            name.push_str(&format!(":ki={}", self.ki));
        }
        if self.setpoint != defaults.setpoint {
            name.push_str(&format!(":set={}", self.setpoint));
        }
        if self.window != defaults.window {
            name.push_str(&format!(":win={}", self.window));
        }
        name
    }

    /// Parse the segments after the `control:` prefix.
    fn parse_segments(rest: &str) -> Result<Self, String> {
        let mut segments = rest.split(':');
        match segments.next() {
            Some("pi") => {}
            other => {
                return Err(format!(
                    "unknown control algorithm '{}' (expected pi)",
                    other.unwrap_or("")
                ))
            }
        }
        let mut factory = Self::default();
        let mut rest: Vec<&str> = segments.collect();
        rest.reverse(); // pop() now yields segments left to right
        let knob = |prefix: &str, rest: &mut Vec<&str>| -> Result<Option<f64>, String> {
            let Some(v) = rest.last().and_then(|s| s.strip_prefix(prefix)) else {
                return Ok(None);
            };
            let parsed = v
                .parse::<f64>()
                .map_err(|_| format!("bad control {prefix}'{v}'"))?;
            rest.pop();
            Ok(Some(parsed))
        };
        if let Some(v) = knob("kp=", &mut rest)? {
            factory.kp = v;
        }
        if let Some(v) = knob("ki=", &mut rest)? {
            factory.ki = v;
        }
        if let Some(v) = knob("set=", &mut rest)? {
            factory.setpoint = v;
        }
        if let Some(v) = knob("win=", &mut rest)? {
            factory.window = v;
        }
        if let Some(stray) = rest.pop() {
            return Err(format!(
                "unexpected control segment '{stray}' \
                 (grammar: control:pi[:kp=K][:ki=I][:set=S][:win=W])"
            ));
        }
        factory.validate()?;
        Ok(factory)
    }
}

/// The offline branch of the roster: which §3.2.3 insertion heuristic
/// fills candidate periods, which objective the `(1+ε)` search optimizes,
/// and the two search knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicFactory {
    /// Period-filling insertion heuristic.
    pub heuristic: InsertionHeuristic,
    /// Objective guiding the period search.
    pub objective: PeriodicObjective,
    /// Multiplicative search step ε.
    pub epsilon: f64,
    /// `Tmax = max_factor · T₀`.
    pub max_factor: f64,
}

impl PeriodicFactory {
    /// Search defaults — the same constants [`PeriodSearch::new`] uses,
    /// so `name()`'s elision of default segments can never drift from
    /// what a directly-constructed search would run.
    pub const DEFAULT_EPSILON: f64 = PeriodSearch::DEFAULT_EPSILON;
    /// See [`PeriodicFactory::DEFAULT_EPSILON`].
    pub const DEFAULT_MAX_FACTOR: f64 = PeriodSearch::DEFAULT_MAX_FACTOR;

    /// The §3.2.3 pairing: each insertion heuristic with the objective it
    /// was designed for, at the default search knobs.
    #[must_use]
    pub fn new(heuristic: InsertionHeuristic) -> Self {
        Self {
            heuristic,
            objective: Self::paired_objective(heuristic),
            epsilon: Self::DEFAULT_EPSILON,
            max_factor: Self::DEFAULT_MAX_FACTOR,
        }
    }

    /// The objective each insertion heuristic targets (§3.2.3):
    /// Insert-In-Schedule-Cong minimizes Dilation,
    /// Insert-In-Schedule-Throu maximizes SysEfficiency.
    #[must_use]
    pub fn paired_objective(heuristic: InsertionHeuristic) -> PeriodicObjective {
        match heuristic {
            InsertionHeuristic::Congestion => PeriodicObjective::Dilation,
            InsertionHeuristic::Throughput => PeriodicObjective::SysEfficiency,
        }
    }

    /// Override the search objective.
    #[must_use]
    pub fn with_objective(mut self, objective: PeriodicObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Override the search step ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Override `Tmax/T₀`.
    #[must_use]
    pub fn with_max_factor(mut self, max_factor: f64) -> Self {
        self.max_factor = max_factor;
        self
    }

    /// The configured period search.
    pub fn search(&self) -> Result<PeriodSearch, String> {
        // `1 + ε > 1` and not just `ε > 0`: an ε below f64 resolution
        // (say 1e-17) would leave the `(1+ε)` period progression exactly
        // in place, degenerating the search to its first candidate.
        if !(self.epsilon.is_finite() && self.epsilon > 0.0 && 1.0 + self.epsilon > 1.0) {
            return Err(format!("periodic eps {} must be positive", self.epsilon));
        }
        if !(self.max_factor.is_finite() && self.max_factor >= 1.0) {
            return Err(format!(
                "periodic tmax {} must be at least 1",
                self.max_factor
            ));
        }
        Ok(PeriodSearch {
            epsilon: self.epsilon,
            max_factor: self.max_factor,
            objective: self.objective,
        })
    }

    /// Stage 2 for the offline family: extract the periodic profiles of
    /// the scenario's applications, run the §3.2.3 search
    /// ([`PeriodSearch::run_complete`]: only candidates scheduling every
    /// application compete — a starved timetable would never grant the
    /// application and its replay could not terminate) and return the
    /// best schedule. Fails on non-periodic applications, an empty
    /// scenario, or when every candidate period starves someone.
    pub fn build_schedule(
        &self,
        platform: &Platform,
        apps: &[AppSpec],
    ) -> Result<PeriodicSchedule, String> {
        let search = self.search()?;
        let specs: Vec<PeriodicAppSpec> = apps
            .iter()
            .map(PeriodicAppSpec::from_app)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{}: {e}", self.name()))?;
        if specs.is_empty() {
            return Err(format!("{}: empty application set", self.name()));
        }
        let result = search
            .run_complete(platform, &specs, self.heuristic)
            .ok_or_else(|| {
                format!(
                    "{}: every candidate period starves an application \
                     (n_per = 0); raise tmax or refine eps",
                    self.name()
                )
            })?;
        debug_assert!(result.schedule.plans.iter().all(|p| p.n_per() > 0));
        Ok(result.schedule)
    }

    /// The canonical name: non-default segments only.
    #[must_use]
    pub fn name(&self) -> String {
        let mut name = format!(
            "periodic:{}",
            match self.heuristic {
                InsertionHeuristic::Congestion => "cong",
                InsertionHeuristic::Throughput => "throu",
            }
        );
        if self.objective != Self::paired_objective(self.heuristic) {
            name.push_str(match self.objective {
                PeriodicObjective::Dilation => ":dilation",
                PeriodicObjective::SysEfficiency => ":syseff",
            });
        }
        if self.epsilon != Self::DEFAULT_EPSILON {
            name.push_str(&format!(":eps={}", self.epsilon));
        }
        if self.max_factor != Self::DEFAULT_MAX_FACTOR {
            name.push_str(&format!(":tmax={}", self.max_factor));
        }
        name
    }

    /// Parse the segments after the `periodic:` prefix.
    fn parse_segments(rest: &str) -> Result<Self, String> {
        let mut segments = rest.split(':');
        let heuristic = match segments.next() {
            Some("cong") => InsertionHeuristic::Congestion,
            Some("throu") => InsertionHeuristic::Throughput,
            other => {
                return Err(format!(
                    "unknown periodic heuristic '{}' (expected cong or throu)",
                    other.unwrap_or("")
                ))
            }
        };
        let mut factory = Self::new(heuristic);
        let mut rest: Vec<&str> = segments.collect();
        rest.reverse(); // pop() now yields segments left to right
        if let Some(&seg) = rest.last() {
            match seg {
                "dilation" => {
                    factory.objective = PeriodicObjective::Dilation;
                    rest.pop();
                }
                "syseff" => {
                    factory.objective = PeriodicObjective::SysEfficiency;
                    rest.pop();
                }
                _ => {}
            }
        }
        if let Some(v) = rest.last().and_then(|s| s.strip_prefix("eps=")) {
            factory.epsilon = v
                .parse::<f64>()
                .map_err(|_| format!("bad periodic eps '{v}'"))?;
            rest.pop();
        }
        if let Some(v) = rest.last().and_then(|s| s.strip_prefix("tmax=")) {
            factory.max_factor = v
                .parse::<f64>()
                .map_err(|_| format!("bad periodic tmax '{v}'"))?;
            rest.pop();
        }
        if let Some(stray) = rest.pop() {
            return Err(format!(
                "unexpected periodic segment '{stray}' \
                 (grammar: periodic:<cong|throu>[:<dilation|syseff>][:eps=E][:tmax=F])"
            ));
        }
        // Range validation lives in `search()` (the one place that knows
        // what the period search accepts); parsing fails on the same
        // inputs build would.
        factory.search()?;
        Ok(factory)
    }
}

impl PolicyFactory {
    /// Instantiate the policy for a concrete scenario (stage 2).
    ///
    /// The online roster ignores `platform` and `apps`; the periodic
    /// family runs its schedule search over them and returns the
    /// timetable replay. Errors carry the factory name.
    pub fn build(
        &self,
        platform: &Platform,
        apps: &[AppSpec],
    ) -> Result<Box<dyn OnlinePolicy>, String> {
        match self {
            Self::Kind(kind) => Ok(kind.build()),
            Self::FairShare => Ok(Box::new(FairShare)),
            Self::Fcfs => Ok(Box::new(Fcfs)),
            Self::Periodic(periodic) => {
                let schedule = periodic.build_schedule(platform, apps)?;
                Ok(Box::new(
                    TimetablePolicy::new(schedule).with_name(periodic.name()),
                ))
            }
            Self::Control(control) => {
                control.validate()?;
                Ok(Box::new(control.build()))
            }
        }
    }

    /// Instantiate the policy for an *online* context — a live daemon or
    /// any caller whose arrival sequence is not known up front. The
    /// offline periodic family is rejected with an actionable error: its
    /// stage-2 schedule search needs the complete roster before the run
    /// starts, which an open admission stream can never provide. Every
    /// context-free factory builds exactly as [`PolicyFactory::build`]
    /// with an empty roster would — which is also what makes a
    /// checkpoint replay reinstantiate the identical policy: the factory
    /// name is the whole recipe.
    pub fn build_online(&self, platform: &Platform) -> Result<Box<dyn OnlinePolicy>, String> {
        if self.is_offline() {
            return Err(format!(
                "policy '{}' is an offline periodic schedule: it must see the \
                 complete application roster before the run starts and cannot \
                 serve online submissions; pick an online policy \
                 (e.g. maxsyseff, mindilation, fairshare, or control:pi)",
                self.name()
            ));
        }
        self.build(platform, &[])
    }

    /// True for factories whose build step actually uses the scenario
    /// (the offline periodic family); the §3.1 heuristics and baselines
    /// are context-free.
    #[must_use]
    pub fn is_offline(&self) -> bool {
        matches!(self, Self::Periodic(_))
    }

    /// Scenario-independent validation: every parsed factory passes (the
    /// grammar already rejects bad knobs), but *programmatically*
    /// constructed factories can carry a degenerate periodic search
    /// (ε ≤ 0 or below f64 resolution, Tmax < T₀) whose canonical name
    /// would not parse back — campaign validation calls this so such a
    /// spec is rejected before it is written or executed.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Periodic(periodic) => periodic.search().map(drop),
            Self::Control(control) => control.validate(),
            _ => Ok(()),
        }
    }

    /// The report name of the built policy.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Self::Kind(kind) => kind.name(),
            Self::FairShare => "fairshare".into(),
            Self::Fcfs => "fcfs".into(),
            Self::Periodic(periodic) => periodic.name(),
            Self::Control(control) => control.name(),
        }
    }

    /// Parse the names used throughout the reports, the CLI and campaign
    /// files: `roundrobin`, `mindilation`, `maxsyseff`, `minmax-<γ>`,
    /// `fairshare`, `fcfs`, `priority-` variants of the heuristics, and
    /// the offline `periodic:<cong|throu>[…]` forms (see the
    /// [module docs](self) for the full periodic grammar).
    pub fn parse(name: &str) -> Result<Self, String> {
        if let Some(rest) = name.strip_prefix("periodic:") {
            return PeriodicFactory::parse_segments(rest).map(Self::Periodic);
        }
        if let Some(rest) = name.strip_prefix("control:") {
            return ControlFactory::parse_segments(rest).map(Self::Control);
        }
        let (prio, bare) = match name.strip_prefix("priority-") {
            Some(rest) => (true, rest),
            None => (false, name),
        };
        let kind = |base: BasePolicy| {
            Ok(Self::Kind(if prio {
                PolicyKind::with_priority(base)
            } else {
                PolicyKind::plain(base)
            }))
        };
        match bare {
            "roundrobin" => kind(BasePolicy::RoundRobin),
            "mindilation" => kind(BasePolicy::MinDilation),
            "maxsyseff" => kind(BasePolicy::MaxSysEff),
            "fairshare" if !prio => Ok(Self::FairShare),
            "fcfs" if !prio => Ok(Self::Fcfs),
            other => match other.strip_prefix("minmax-") {
                Some(gamma) => {
                    let g: f64 = gamma
                        .parse()
                        .map_err(|_| format!("bad MinMax threshold '{gamma}'"))?;
                    if !(0.0..=1.0).contains(&g) {
                        return Err(format!("MinMax threshold {g} outside [0, 1]"));
                    }
                    kind(BasePolicy::MinMax(g))
                }
                None => Err(format!(
                    "unknown policy '{name}' (try roundrobin, mindilation, maxsyseff, \
                     minmax-<γ>, fairshare, fcfs, a priority- prefix, \
                     periodic:<cong|throu>, or control:pi)"
                )),
            },
        }
    }

    /// The serde string: [`PolicyFactory::name`] when it parses back to
    /// this exact factory (true for the whole paper roster and every
    /// periodic form), else a full-precision spelling — `name()` rounds
    /// the MinMax γ to two decimals for display, which would silently
    /// corrupt e.g. `γ = 1/3` on a serialize → deserialize trip.
    #[must_use]
    pub fn serde_name(&self) -> String {
        let display = self.name();
        if Self::parse(&display).ok() == Some(*self) {
            return display;
        }
        match self {
            Self::Kind(kind) => {
                let BasePolicy::MinMax(g) = kind.base else {
                    unreachable!("only MinMax names are lossy");
                };
                let prefix = if kind.priority { "priority-" } else { "" };
                format!("{prefix}minmax-{g}")
            }
            _ => display,
        }
    }

    /// Every *online* policy the paper's evaluation touches: the eight
    /// Fig. 6 heuristics plus the two uncoordinated baselines. The roster
    /// behind the CLI's `--policy all`.
    #[must_use]
    pub fn full_roster() -> Vec<PolicyFactory> {
        let mut roster: Vec<PolicyFactory> = PolicyKind::fig6_roster()
            .into_iter()
            .map(PolicyFactory::Kind)
            .collect();
        roster.push(PolicyFactory::FairShare);
        roster.push(PolicyFactory::Fcfs);
        roster
    }

    /// The offline branch: both §3.2.3 insertion heuristics at their
    /// paired objectives and default search knobs.
    #[must_use]
    pub fn offline_roster() -> Vec<PolicyFactory> {
        vec![
            PolicyFactory::Periodic(PeriodicFactory::new(InsertionHeuristic::Congestion)),
            PolicyFactory::Periodic(PeriodicFactory::new(InsertionHeuristic::Throughput)),
        ]
    }

    /// The closed-loop branch: the default PI controller.
    #[must_use]
    pub fn control_roster() -> Vec<PolicyFactory> {
        vec![PolicyFactory::Control(ControlFactory::default())]
    }

    /// The whole registry: online roster, offline roster, then the
    /// closed-loop control family.
    #[must_use]
    pub fn complete_roster() -> Vec<PolicyFactory> {
        let mut roster = Self::full_roster();
        roster.extend(Self::offline_roster());
        roster.extend(Self::control_roster());
        roster
    }
}

impl serde::Serialize for PolicyFactory {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.serde_name())
    }
}

impl serde::Deserialize for PolicyFactory {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let name = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected policy name string"))?;
        Self::parse(name).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::{Bw, Bytes, Time};

    #[test]
    fn parse_covers_the_complete_roster() {
        for name in [
            "roundrobin",
            "mindilation",
            "maxsyseff",
            "minmax-0.5",
            "priority-minmax-0.25",
            "priority-maxsyseff",
            "fairshare",
            "fcfs",
            "periodic:cong",
            "periodic:throu",
            "periodic:cong:syseff",
            "periodic:throu:dilation",
            "periodic:cong:eps=0.02",
            "periodic:cong:eps=0.02:tmax=1.5",
            "periodic:throu:syseff:eps=0.1:tmax=4",
            "control:pi",
            "control:pi:kp=1",
            "control:pi:kp=1:set=0.85",
            "control:pi:kp=0.25:ki=0.01:set=0.85:win=120",
        ] {
            let factory = PolicyFactory::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            // The canonical name parses back to the identical factory.
            assert_eq!(
                PolicyFactory::parse(&factory.name()).unwrap(),
                factory,
                "name() not canonical for {name}"
            );
        }
    }

    #[test]
    fn periodic_grammar_rejects_malformed_forms() {
        for bad in [
            "periodic:",
            "periodic:fast",
            "periodic:best",
            "periodic:cong:bogus",
            "periodic:cong:eps=zero",
            "periodic:cong:eps=-0.1",
            "periodic:cong:eps=0",
            // Below f64 resolution: 1 + ε == 1, the (1+ε) progression
            // would never advance.
            "periodic:cong:eps=1e-17",
            "periodic:cong:tmax=0.5",
            "periodic:cong:tmax=1.5:eps=0.1", // segments out of canonical order
            "periodic:cong:eps=0.1:eps=0.2",
            "lottery",
            "minmax-1.5",
            "priority-fairshare",
            "priority-fcfs",
            "priority-periodic:cong",
        ] {
            assert!(PolicyFactory::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn periodic_names_print_only_non_default_segments() {
        let cong = PeriodicFactory::new(InsertionHeuristic::Congestion);
        assert_eq!(cong.name(), "periodic:cong");
        assert_eq!(
            cong.with_objective(PeriodicObjective::SysEfficiency).name(),
            "periodic:cong:syseff"
        );
        let tuned = PeriodicFactory::new(InsertionHeuristic::Congestion)
            .with_epsilon(0.02)
            .with_max_factor(1.5);
        assert_eq!(tuned.name(), "periodic:cong:eps=0.02:tmax=1.5");
        assert_eq!(
            PolicyFactory::parse(&tuned.name()).unwrap(),
            PolicyFactory::Periodic(tuned)
        );
        assert_eq!(
            PeriodicFactory::new(InsertionHeuristic::Throughput).name(),
            "periodic:throu"
        );
    }

    fn scenario() -> (Platform, Vec<AppSpec>) {
        let platform = Platform::new("t", 1_000, Bw::gib_per_sec(0.1), Bw::gib_per_sec(10.0));
        let apps = vec![
            AppSpec::periodic(0, Time::ZERO, 100, Time::secs(8.0), Bytes::gib(20.0), 3),
            AppSpec::periodic(1, Time::ZERO, 100, Time::secs(8.0), Bytes::gib(20.0), 3),
        ];
        (platform, apps)
    }

    #[test]
    fn online_factories_build_ignoring_the_scenario() {
        let (platform, apps) = scenario();
        for factory in PolicyFactory::full_roster() {
            let policy = factory.build(&platform, &apps).unwrap();
            assert_eq!(policy.name(), factory.name());
            // Context-free: an empty scenario builds too.
            assert!(factory.build(&platform, &[]).is_ok());
            assert!(!factory.is_offline());
        }
    }

    #[test]
    fn periodic_factory_builds_the_searched_timetable() {
        let (platform, apps) = scenario();
        let factory = PolicyFactory::Periodic(PeriodicFactory::new(InsertionHeuristic::Congestion));
        let policy = factory.build(&platform, &apps).unwrap();
        assert_eq!(policy.name(), "periodic:cong");
        assert!(factory.is_offline());
        // The schedule the factory replays is exactly the search's best.
        let periodic = PeriodicFactory::new(InsertionHeuristic::Congestion);
        let schedule = periodic.build_schedule(&platform, &apps).unwrap();
        let specs: Vec<PeriodicAppSpec> = apps
            .iter()
            .map(|a| PeriodicAppSpec::from_app(a).unwrap())
            .collect();
        let manual = periodic
            .search()
            .unwrap()
            .run(&platform, &specs, InsertionHeuristic::Congestion)
            .unwrap();
        assert_eq!(schedule, manual.schedule);
    }

    #[test]
    fn periodic_build_fails_cleanly_on_bad_scenarios() {
        let (platform, apps) = scenario();
        let factory = PeriodicFactory::new(InsertionHeuristic::Congestion);
        // Empty scenario.
        let err = factory.build_schedule(&platform, &[]).unwrap_err();
        assert!(err.contains("empty"), "{err}");
        // Non-periodic application.
        let mut aperiodic = apps.clone();
        aperiodic.push(AppSpec::new(
            2,
            Time::ZERO,
            10,
            iosched_model::InstancePattern::Explicit(vec![
                iosched_model::Instance::new(Time::secs(1.0), Bytes::gib(1.0)),
                iosched_model::Instance::new(Time::secs(2.0), Bytes::gib(1.0)),
            ]),
        ));
        let err = factory.build_schedule(&platform, &aperiodic).unwrap_err();
        assert!(err.contains("periodic"), "{err}");
        // Invalid knobs surface as errors, not panics.
        assert!(factory
            .with_epsilon(0.0)
            .build_schedule(&platform, &apps)
            .is_err());
        assert!(factory
            .with_max_factor(0.5)
            .build_schedule(&platform, &apps)
            .is_err());
    }

    #[test]
    fn starved_schedules_are_rejected_at_build() {
        // Deterministic starvation: T₀ = 1000.2 s (app 0's span), and the
        // two pure-I/O hogs each need the whole PFS for 1000 s. The first
        // hog reserves [0, 1000); the second finds no window at any
        // bandwidth-ladder rung within the single tmax = 1 candidate
        // period, so it ends with n_per = 0 and the factory must refuse.
        let platform = Platform::new("t", 1_000, Bw::gib_per_sec(0.01), Bw::gib_per_sec(0.5));
        let apps = vec![
            AppSpec::periodic(0, Time::ZERO, 50, Time::secs(1_000.0), Bytes::gib(0.1), 1),
            AppSpec::periodic(1, Time::ZERO, 50, Time::secs(0.0), Bytes::gib(500.0), 1),
            AppSpec::periodic(2, Time::ZERO, 50, Time::secs(0.0), Bytes::gib(500.0), 1),
        ];
        let factory = PeriodicFactory::new(InsertionHeuristic::Throughput).with_max_factor(1.0);
        let err = factory
            .build_schedule(&platform, &apps)
            .expect_err("the second hog cannot be scheduled");
        assert!(err.contains("starves"), "{err}");
        assert!(err.contains("periodic:throu"), "{err}");
    }

    #[test]
    fn serde_is_the_name_string_for_the_complete_roster() {
        for factory in PolicyFactory::complete_roster() {
            let json = serde_json::to_string(&factory).unwrap();
            assert_eq!(json, format!("\"{}\"", factory.name()));
            let back: PolicyFactory = serde_json::from_str(&json).unwrap();
            assert_eq!(back, factory, "serde roundtrip diverged for {json}");
        }
        // Periodic knobs survive serde at full precision.
        let tuned = PolicyFactory::Periodic(
            PeriodicFactory::new(InsertionHeuristic::Congestion)
                .with_epsilon(1.0 / 3.0)
                .with_max_factor(2.5),
        );
        let json = serde_json::to_string(&tuned).unwrap();
        let back: PolicyFactory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tuned);
    }

    #[test]
    fn rosters_are_disjoint_and_named_uniquely() {
        let roster = PolicyFactory::complete_roster();
        assert_eq!(roster.len(), 13, "10 online + 2 offline + 1 control");
        let mut names: Vec<String> = roster.iter().map(PolicyFactory::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 13, "duplicate names in the roster");
        assert_eq!(
            roster.iter().filter(|f| f.is_offline()).count(),
            2,
            "offline branch is the two periodic defaults"
        );
        assert!(
            roster
                .iter()
                .any(|f| matches!(f, PolicyFactory::Control(_))),
            "control family in the roster"
        );
    }

    #[test]
    fn control_grammar_roundtrips_and_elides_defaults() {
        let default = ControlFactory::default();
        assert_eq!(default.name(), "control:pi");
        assert_eq!(
            PolicyFactory::parse("control:pi").unwrap(),
            PolicyFactory::Control(default)
        );
        for name in [
            "control:pi:kp=1",
            "control:pi:ki=0.2",
            "control:pi:set=0.8",
            "control:pi:win=60",
            "control:pi:kp=0.25:set=0.85",
            "control:pi:kp=0.25:ki=0.01:set=0.85:win=120",
        ] {
            let factory = PolicyFactory::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(factory.name(), name, "name() not canonical for {name}");
            assert_eq!(PolicyFactory::parse(&factory.name()).unwrap(), factory);
            assert!(!factory.is_offline(), "control is an online family");
        }
        // Tuned knobs survive serde at full precision.
        let tuned = PolicyFactory::Control(
            ControlFactory::default()
                .with_kp(1.0 / 3.0)
                .with_window(45.5),
        );
        let json = serde_json::to_string(&tuned).unwrap();
        let back: PolicyFactory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tuned);
    }

    #[test]
    fn control_grammar_rejects_malformed_gains_with_actionable_errors() {
        for (bad, needle) in [
            ("control:", "algorithm"),
            ("control:pd", "algorithm"),
            ("control:pi:kp=-1", "non-negative"),
            ("control:pi:kp=nope", "bad control"),
            ("control:pi:ki=-0.5", "non-negative"),
            ("control:pi:set=2.0", "(0, 1]"),
            ("control:pi:set=0", "(0, 1]"),
            ("control:pi:set=-0.5", "(0, 1]"),
            ("control:pi:win=0", "positive"),
            ("control:pi:win=-10", "positive"),
            ("control:pi:win=inf", "positive"),
            ("control:pi:gain=1", "unexpected control segment"),
            // Segments out of canonical order are strays.
            ("control:pi:set=0.8:kp=1", "unexpected control segment"),
            ("control:pi:kp=1:kp=2", "unexpected control segment"),
            ("priority-control:pi", "unknown policy"),
        ] {
            let err = PolicyFactory::parse(bad).expect_err(bad);
            assert!(
                err.contains(needle),
                "{bad}: error '{err}' lacks '{needle}'"
            );
        }
    }

    #[test]
    fn build_online_serves_every_context_free_factory_and_refuses_offline() {
        let (platform, _) = scenario();
        for factory in PolicyFactory::complete_roster() {
            if factory.is_offline() {
                let err = match factory.build_online(&platform) {
                    Ok(_) => panic!("{} must refuse online builds", factory.name()),
                    Err(e) => e,
                };
                assert!(err.contains("offline periodic"), "{err}");
                assert!(err.contains(&factory.name()), "{err}");
                assert!(err.contains("pick an online policy"), "{err}");
            } else {
                let policy = factory.build_online(&platform).unwrap();
                assert_eq!(policy.name(), factory.name());
            }
        }
    }

    #[test]
    fn control_factory_builds_the_named_policy() {
        let (platform, apps) = scenario();
        let factory = PolicyFactory::parse("control:pi:set=0.8").unwrap();
        let policy = factory.build(&platform, &apps).unwrap();
        assert_eq!(policy.name(), "control:pi:set=0.8");
        // Context-free: builds for any (even empty) scenario.
        assert!(factory.build(&platform, &[]).is_ok());
        // Programmatically built degenerate knobs are caught by build and
        // validate, not panics.
        let degenerate = PolicyFactory::Control(ControlFactory::default().with_setpoint(2.0));
        assert!(degenerate.validate().is_err());
        assert!(degenerate.build(&platform, &apps).is_err());
    }

    #[test]
    fn parse_name_serde_roundtrip_over_the_complete_roster() {
        // Every policy the evaluation touches: Fig. 6 roster + Tables 1–2
        // roster + the baselines + the §3.2 offline periodic forms.
        let mut roster = PolicyFactory::complete_roster();
        roster.extend(
            PolicyKind::tables_roster()
                .into_iter()
                .map(PolicyFactory::Kind),
        );
        roster.push(PolicyFactory::Periodic(
            PeriodicFactory::new(InsertionHeuristic::Congestion)
                .with_epsilon(0.02)
                .with_max_factor(1.5),
        ));
        roster.push(PolicyFactory::Control(
            ControlFactory::default().with_kp(1.0).with_setpoint(0.85),
        ));
        assert!(roster.len() >= 20);
        for spec in roster {
            // parse ↔ name.
            let name = spec.name();
            assert_eq!(
                PolicyFactory::parse(&name).unwrap_or_else(|e| panic!("{name}: {e}")),
                spec,
                "parse(name()) diverged for {name}"
            );
            // name ↔ serde: the serialized form *is* the name string.
            let value = serde::Serialize::to_value(&spec);
            assert_eq!(value, serde::Value::Str(name.clone()));
            let json = serde_json::to_string(&spec).unwrap();
            assert_eq!(json, format!("\"{name}\""));
            let back: PolicyFactory = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "serde roundtrip diverged for {name}");
        }
    }

    #[test]
    fn serde_preserves_gammas_the_display_name_rounds() {
        let third = PolicyFactory::Kind(PolicyKind::plain(BasePolicy::MinMax(1.0 / 3.0)));
        assert_eq!(third.name(), "minmax-0.33"); // display rounds…
        let json = serde_json::to_string(&third).unwrap();
        let back: PolicyFactory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, third, "…but serde must not");
    }

    #[test]
    fn serde_rejects_invalid_policy_strings() {
        for bad in [
            "\"lottery\"",
            "\"minmax-1.5\"",
            "\"priority-fairshare\"",
            "\"periodic:cong:eps=-1\"",
            "7",
        ] {
            assert!(
                serde_json::from_str::<PolicyFactory>(bad).is_err(),
                "{bad} should not deserialize"
            );
        }
    }

    #[test]
    fn full_roster_covers_heuristics_and_baselines() {
        let names: Vec<String> = PolicyFactory::full_roster()
            .iter()
            .map(PolicyFactory::name)
            .collect();
        assert_eq!(names.len(), 10);
        for needle in ["roundrobin", "priority-minmax-0.50", "fairshare", "fcfs"] {
            assert!(names.contains(&needle.to_string()), "missing {needle}");
        }
        // The offline branch extends, not replaces, the paper roster.
        let complete: Vec<String> = PolicyFactory::complete_roster()
            .iter()
            .map(PolicyFactory::name)
            .collect();
        assert!(complete.contains(&"periodic:cong".to_string()));
        assert!(complete.contains(&"periodic:throu".to_string()));
        assert!(complete.contains(&"control:pi".to_string()));
    }
}

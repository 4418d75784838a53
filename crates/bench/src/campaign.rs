//! Declarative experiment campaigns: every experiment is data.
//!
//! A [`ScenarioSpec`] describes one run — platform, workload, policy and
//! engine configuration, all as *specs* rather than materialized
//! objects. A [`CampaignSpec`] describes a whole sweep as the cartesian
//! product `platforms × workloads × policies × seeds` and expands it
//! lazily: workloads are materialized on the worker threads as the
//! runner reaches them, never all at once.
//!
//! [`run_campaign`] executes a campaign through the streaming
//! [`ScenarioRunner::fold`] and aggregates outcomes into one
//! [`CellSummary`] per `(platform, workload, policy)` cell: each
//! `(platform, workload, seed)` block materializes its workload once,
//! shares it across every policy, and folds into the in-flight group's
//! sample buffers — a 200-mix × 8-policy Fig. 6 campaign holds
//! `O(cells)` summaries plus one group of samples, not `O(runs)`
//! simulation outcomes.
//!
//! [`run_policy`] is the one place a [`PolicySpec`] meets its arrivals:
//! the seed blocks (so every campaign experiment, Fig. 1 included) and
//! `iosched run` drive the engine through it.

use crate::runner::ScenarioRunner;
use crate::PolicySpec;
use iosched_core::baselines::native_platform;
use iosched_core::policy::OnlinePolicy;
use iosched_model::app::validate_open_scenario;
use iosched_model::stats::Summary;
use iosched_model::{AppSpec, Platform};
use iosched_sim::{SimConfig, SimError, SimOutcome, Simulation};
use iosched_workload::WorkloadSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The applications a run feeds the engine, as the caller holds them.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals<'a> {
    /// A closed roster, validated as a whole (dense ids, `Σβ ≤ N`).
    Closed(&'a [AppSpec]),
    /// A materialized open stream: release-sorted, each application
    /// checked on its own instead of against the closed budget.
    Open(&'a [AppSpec]),
    /// An open stream's spec, pulled lazily so peak memory tracks the
    /// stream's concurrency, never its length.
    Lazy(&'a WorkloadSpec),
}

/// Why [`run_policy`] produced no outcome.
#[derive(Debug)]
pub enum RunError {
    /// The policy could not be built for these arrivals (an offline
    /// schedule that starves an application, a non-periodic roster), or
    /// a lazy stream could not be opened or materialized.
    Build(String),
    /// The engine refused the arrivals or failed mid-run.
    Engine(SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Build(e) => f.write_str(e),
            Self::Engine(e) => e.fmt(f),
        }
    }
}

/// Build `policy` for `arrivals` and drive the engine to completion.
///
/// A closed roster runs through [`Simulation::new`]; an open stream
/// through [`Simulation::from_stream`]. A materialized stream is first
/// validated as [`iosched_sim::simulate_open`] validates it. Offline
/// `periodic:*` policies plan over the whole roster, so a lazy stream is
/// materialized for them first; every other policy pulls it lazily.
/// `trace` attaches a decision trace keeping the last that many records.
pub fn run_policy(
    platform: &Platform,
    arrivals: Arrivals<'_>,
    policy: PolicySpec,
    config: &SimConfig,
    trace: Option<usize>,
) -> Result<SimOutcome, RunError> {
    let mut built: Box<dyn OnlinePolicy>;
    let sim = match arrivals {
        Arrivals::Closed(apps) => {
            built = policy.build(platform, apps).map_err(RunError::Build)?;
            Simulation::new(platform, apps, built.as_mut(), config)
        }
        Arrivals::Open(apps) => {
            built = policy.build(platform, apps).map_err(RunError::Build)?;
            validate_open_scenario(platform, apps)
                .map_err(|e| RunError::Engine(SimError::InvalidScenario(e.to_string())))?;
            Simulation::from_stream(platform, apps.iter().cloned(), built.as_mut(), config)
        }
        Arrivals::Lazy(workload) if policy.is_offline() => {
            let apps = workload.materialize(platform).map_err(RunError::Build)?;
            built = policy.build(platform, &apps).map_err(RunError::Build)?;
            Simulation::from_stream(platform, apps.into_iter(), built.as_mut(), config)
        }
        Arrivals::Lazy(workload) => {
            built = policy.build(platform, &[]).map_err(RunError::Build)?;
            let source = workload.app_source(platform).map_err(RunError::Build)?;
            Simulation::from_stream(platform, source, built.as_mut(), config)
        }
    };
    let mut sim = sim.map_err(RunError::Engine)?;
    if let Some(capacity) = trace {
        sim.enable_decision_trace(capacity);
    }
    sim.run_to_completion().map_err(RunError::Engine)
}

/// Resolve a platform preset by name (`intrepid`, `mira`, `vesta`) — the
/// one name table shared by the CLI, campaign files and experiments.
pub fn platform_preset(name: &str) -> Result<iosched_model::Platform, String> {
    match name {
        "intrepid" => Ok(iosched_model::Platform::intrepid()),
        "mira" => Ok(iosched_model::Platform::mira()),
        "vesta" => Ok(iosched_model::Platform::vesta()),
        other => Err(format!(
            "unknown platform '{other}' (expected intrepid, mira or vesta)"
        )),
    }
}

/// Serializable machine description: a preset name, its "native" variant
/// (interference penalty + default burst buffer, the Tables 1–2
/// baseline), or a fully custom [`iosched_model::Platform`].
///
/// Serde representation: `"intrepid"`, `"native:intrepid"`, or the
/// inline platform object.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformSpec {
    /// A stock preset.
    Preset(String),
    /// [`native_platform`] applied to a preset.
    Native(String),
    /// An explicit platform description.
    Custom(iosched_model::Platform),
}

impl PlatformSpec {
    /// Resolve into a concrete platform.
    pub fn build(&self) -> Result<iosched_model::Platform, String> {
        match self {
            Self::Preset(name) => platform_preset(name),
            Self::Native(name) => platform_preset(name).map(native_platform),
            Self::Custom(platform) => {
                platform.validate().map_err(|e| e.to_string())?;
                Ok(platform.clone())
            }
        }
    }

    /// Report label (`intrepid`, `native:intrepid`, or the custom name).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Preset(name) => name.clone(),
            Self::Native(name) => format!("native:{name}"),
            Self::Custom(platform) => platform.name.clone(),
        }
    }
}

impl serde::Serialize for PlatformSpec {
    fn to_value(&self) -> serde::Value {
        match self {
            Self::Preset(name) => serde::Value::Str(name.clone()),
            Self::Native(name) => serde::Value::Str(format!("native:{name}")),
            Self::Custom(platform) => platform.to_value(),
        }
    }
}

impl serde::Deserialize for PlatformSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(s) = v.as_str() {
            let spec = match s.strip_prefix("native:") {
                Some(base) => Self::Native(base.to_string()),
                None => Self::Preset(s.to_string()),
            };
            // Fail at parse time, not deep inside a worker thread.
            spec.build().map_err(serde::Error::custom)?;
            return Ok(spec);
        }
        if v.as_map().is_some() {
            return iosched_model::Platform::from_value(v).map(Self::Custom);
        }
        Err(serde::Error::custom(
            "expected a platform name string or an inline platform object",
        ))
    }
}

/// One simulate-one-scenario unit of work, as pure data: the scenario
/// file `iosched generate` writes and `iosched run` runs, and the unit a
/// campaign expands into ([`CampaignSpec::scenario_spec`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Free-form tag carried into reports.
    pub label: String,
    /// Machine description.
    pub platform: PlatformSpec,
    /// Workload description.
    pub workload: WorkloadSpec,
    /// Policy description.
    pub policy: PolicySpec,
    /// Engine configuration (`None` = [`SimConfig::default`]).
    pub config: Option<SimConfig>,
}

/// A whole sweep as data: the cartesian product
/// `platforms × workloads × policies × seeds`, expanded lazily in
/// cell-major order (platform, then workload, then policy, seeds
/// innermost). The workload entries are *templates*: each seed rebinds
/// them via [`WorkloadSpec::with_seed`]. An empty `seeds` list means
/// "one run per cell, templates used as-is".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (report headers, scenario labels).
    pub name: String,
    /// Platform axis.
    pub platforms: Vec<PlatformSpec>,
    /// Workload-template axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Policy axis.
    pub policies: Vec<PolicySpec>,
    /// Seed axis (may be empty: run each template once, unseeded).
    pub seeds: Vec<u64>,
    /// Engine configuration shared by every run (`None` = default).
    pub config: Option<SimConfig>,
    /// Worker-thread override for the CLI (`None` = environment).
    pub threads: Option<usize>,
}

impl CampaignSpec {
    /// Parse from JSON and validate.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let spec: Self = serde_json::from_str(s).map_err(|e| e.to_string())?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serialize as pretty JSON. Validates first: a programmatically
    /// built spec with degenerate periodic knobs would otherwise
    /// serialize into a name string [`CampaignSpec::from_json`] rejects
    /// — better to refuse at write time than to produce an unreadable
    /// file.
    pub fn to_json(&self) -> Result<String, String> {
        self.validate()?;
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Check every axis: non-empty, resolvable platforms, structurally
    /// valid workload templates, a sane thread count.
    pub fn validate(&self) -> Result<(), String> {
        if self.platforms.is_empty() {
            return Err("campaign needs at least one platform".into());
        }
        if self.workloads.is_empty() {
            return Err("campaign needs at least one workload".into());
        }
        if self.policies.is_empty() {
            return Err("campaign needs at least one policy".into());
        }
        if self.threads == Some(0) {
            return Err("thread count must be at least 1".into());
        }
        for platform in &self.platforms {
            platform.build()?;
        }
        for workload in &self.workloads {
            workload
                .validate()
                .map_err(|e| format!("workload '{}': {e}", workload.label()))?;
        }
        for policy in &self.policies {
            // Parsed policies are always valid; this catches
            // programmatically built factories with degenerate periodic
            // knobs before they serialize into an unreadable file or
            // reach a worker.
            policy.validate()?;
        }
        Ok(())
    }

    /// Number of aggregation cells (`platforms × workloads × policies`).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.platforms.len() * self.workloads.len() * self.policies.len()
    }

    /// Runs per cell: one per seed (at least one).
    #[must_use]
    pub fn runs_per_cell(&self) -> usize {
        self.seeds.len().max(1)
    }

    /// Total simulate-one-scenario runs the campaign expands into.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.cell_count() * self.runs_per_cell()
    }

    /// Number of seed blocks — the unit of parallel (and sharded) work.
    /// Block `b` covers seed slot `b % runs_per_cell()` of
    /// workload-group `b / runs_per_cell()` (groups in platform-major,
    /// workload-minor order) and runs every policy over one shared
    /// workload materialization.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.platforms.len() * self.workloads.len() * self.runs_per_cell()
    }

    /// Decompose a run index (input order) into axis indices
    /// `(platform, workload, policy, seed_slot)`.
    #[must_use]
    pub fn decompose(&self, idx: usize) -> (usize, usize, usize, usize) {
        let rpc = self.runs_per_cell();
        let cell = idx / rpc;
        let seed_slot = idx % rpc;
        let per_platform = self.workloads.len() * self.policies.len();
        let p = cell / per_platform;
        let rem = cell % per_platform;
        (
            p,
            rem / self.policies.len(),
            rem % self.policies.len(),
            seed_slot,
        )
    }

    /// The workload template `w` bound to seed slot `j`.
    #[must_use]
    pub fn bound_workload(&self, w: usize, seed_slot: usize) -> WorkloadSpec {
        match self.seeds.get(seed_slot) {
            Some(&seed) => self.workloads[w].with_seed(seed),
            None => self.workloads[w].clone(),
        }
    }

    /// The spec of run `idx`.
    ///
    /// # Panics
    /// Panics when `idx >= total_runs()`.
    #[must_use]
    pub fn scenario_spec(&self, idx: usize) -> ScenarioSpec {
        assert!(idx < self.total_runs(), "run index out of range");
        let (p, w, pol, j) = self.decompose(idx);
        let seed_tag = self
            .seeds
            .get(j)
            .map_or_else(String::new, |s| format!("/{s}"));
        ScenarioSpec {
            label: format!(
                "{}/{}/{}/{}{seed_tag}",
                self.name,
                self.platforms[p].label(),
                self.workloads[w].label(),
                self.policies[pol].name(),
            ),
            platform: self.platforms[p].clone(),
            workload: self.bound_workload(w, j),
            policy: self.policies[pol],
            config: self.config.clone(),
        }
    }

    /// Lazily expand into scenario specs, in run order.
    pub fn scenario_specs(&self) -> impl Iterator<Item = ScenarioSpec> + '_ {
        (0..self.total_runs()).map(|idx| self.scenario_spec(idx))
    }

    /// Labels of the aggregation cells, in cell order. Policies are
    /// keyed by [`PolicySpec::serde_name`] (full precision), so a fine γ
    /// sweep whose display names collide after rounding still yields
    /// distinct cell labels.
    #[must_use]
    pub fn cell_labels(&self) -> Vec<(String, String, String)> {
        let mut labels = Vec::with_capacity(self.cell_count());
        for platform in &self.platforms {
            for workload in &self.workloads {
                for policy in &self.policies {
                    labels.push((platform.label(), workload.label(), policy.serde_name()));
                }
            }
        }
        labels
    }
}

/// The raw per-run numbers a campaign aggregates — one value per
/// metric, extracted from a [`SimOutcome`] the moment it finishes.
///
/// This is the unit the sharded partial format (`crate::shard`) carries:
/// cell summaries are *derived* state (`Summary::from_slice` over a
/// cell's runs) whose mean/std depend on the fold order at the ulp
/// level, so shards persist the raw metrics instead and the merge
/// reducer replays the exact single-process fold. Optional metrics
/// mirror [`SimOutcome`]: `utilization` is present iff the run carried a
/// telemetry summary, `queue`/`stretch` iff it carried a steady-state
/// summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// SysEfficiency (fraction).
    pub sys_efficiency: f64,
    /// Dilation.
    pub dilation: f64,
    /// Congestion-free upper limit (fraction).
    pub upper_limit: f64,
    /// Makespan in seconds (`end_time`, horizon-safe).
    pub makespan_secs: f64,
    /// Time-weighted mean delivered utilization, if telemetry was on.
    pub utilization: Option<f64>,
    /// Steady-state mean I/O-queue length, if a steady window applied.
    pub queue: Option<f64>,
    /// Steady-state mean per-application stretch, same presence as
    /// `queue`.
    pub stretch: Option<f64>,
}

impl RunMetrics {
    /// Extract the campaign-level metrics from one finished run.
    #[must_use]
    pub fn from_outcome(outcome: &SimOutcome) -> Self {
        Self {
            sys_efficiency: outcome.report.sys_efficiency,
            dilation: outcome.report.dilation,
            upper_limit: outcome.report.upper_limit,
            // `end_time` equals `report.makespan()` bit-for-bit on
            // completed runs (the engine's last event is the last
            // completion), and unlike the report fold it stays correct
            // when the per-app detail is off (empty `per_app` would fold
            // to 0) or a horizon cut the run.
            makespan_secs: outcome.end_time.as_secs(),
            utilization: outcome.telemetry.as_ref().map(|t| t.mean_utilization),
            queue: outcome.steady.as_ref().map(|s| s.mean_queue),
            stretch: outcome.steady.as_ref().map(|s| s.mean_stretch),
        }
    }
}

/// Aggregates of one `(platform, workload, policy)` cell over its seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Platform label.
    pub platform: String,
    /// Workload-template label.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Runs aggregated.
    pub runs: usize,
    /// SysEfficiency (fraction) over the seeds.
    pub sys_efficiency: Summary,
    /// Dilation over the seeds.
    pub dilation: Summary,
    /// Congestion-free upper limit (fraction) over the seeds.
    pub upper_limit: Summary,
    /// Makespan in seconds over the seeds.
    pub makespan_secs: Summary,
    /// Time-weighted mean delivered utilization per run, over the seeds
    /// (present iff the campaign's [`SimConfig::telemetry`] flag asked
    /// every run for a telemetry summary).
    pub utilization: Option<Summary>,
    /// Steady-state mean I/O-queue length per run, over the seeds
    /// (present iff every run attached a steady summary — stream
    /// workloads, or a campaign-wide `warmup`/`horizon` window). The
    /// load-sweep saturation curves read queue growth off this.
    pub queue: Option<Summary>,
    /// Steady-state mean per-application stretch per run, over the
    /// seeds (same presence rule as `queue`).
    pub stretch: Option<Summary>,
}

/// Output of [`run_campaign`]: one summary per cell, in cell order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Campaign name.
    pub name: String,
    /// Runs executed.
    pub total_runs: usize,
    /// Per-cell aggregates.
    pub cells: Vec<CellSummary>,
}

impl CampaignResult {
    /// Find a cell by workload label and policy name (first platform
    /// match).
    #[must_use]
    pub fn cell(&self, workload: &str, policy: &str) -> Option<&CellSummary> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.policy == policy)
    }

    /// Pool one policy's per-run dilations across every cell (platforms
    /// × workloads) via [`Summary::merge`] — the sharded-aggregation
    /// view: each cell is one shard, the pooled summary is the summary
    /// of all of that policy's runs. `None` for an unknown policy.
    #[must_use]
    pub fn pooled_dilation(&self, policy: &str) -> Option<Summary> {
        let mut acc = Summary::empty();
        for cell in self.cells.iter().filter(|c| c.policy == policy) {
            acc.merge(&cell.dilation);
        }
        (acc.n > 0).then_some(acc)
    }
}

/// Streaming per-cell accumulator: holds one cell's samples while its
/// runs stream in, then drains into a [`CellSummary`].
#[derive(Default)]
struct CellBuffer {
    effs: Vec<f64>,
    dils: Vec<f64>,
    uppers: Vec<f64>,
    spans: Vec<f64>,
    utils: Vec<f64>,
    queues: Vec<f64>,
    stretches: Vec<f64>,
}

impl CellBuffer {
    fn push(&mut self, run: &RunMetrics) {
        self.effs.push(run.sys_efficiency);
        self.dils.push(run.dilation);
        self.uppers.push(run.upper_limit);
        self.spans.push(run.makespan_secs);
        if let Some(util) = run.utilization {
            self.utils.push(util);
        }
        if let Some(queue) = run.queue {
            self.queues.push(queue);
        }
        if let Some(stretch) = run.stretch {
            self.stretches.push(stretch);
        }
    }

    fn summarize(&mut self, labels: &(String, String, String)) -> CellSummary {
        // All-or-nothing presence: the telemetry flag and the steady
        // window are campaign-wide, so a partially-populated buffer
        // would mean runs disagreed.
        let optional = |xs: &[f64], runs: usize| {
            (xs.len() == runs)
                .then(|| Summary::from_slice(xs))
                .flatten()
        };
        let runs = self.effs.len();
        let summary = CellSummary {
            platform: labels.0.clone(),
            workload: labels.1.clone(),
            policy: labels.2.clone(),
            runs,
            sys_efficiency: Summary::from_slice(&self.effs).expect("non-empty cell"),
            dilation: Summary::from_slice(&self.dils).expect("non-empty cell"),
            upper_limit: Summary::from_slice(&self.uppers).expect("non-empty cell"),
            makespan_secs: Summary::from_slice(&self.spans).expect("non-empty cell"),
            utilization: optional(&self.utils, runs),
            queue: optional(&self.queues, runs),
            stretch: optional(&self.stretches, runs),
        };
        self.effs.clear();
        self.dils.clear();
        self.uppers.clear();
        self.spans.clear();
        self.utils.clear();
        self.queues.clear();
        self.stretches.clear();
        summary
    }
}

/// The campaign's canonical cell fold, shared by [`run_campaign`] and
/// the shard merge reducer (`crate::shard`): feed every seed block's
/// [`RunMetrics`] in **ascending block order** and it produces the
/// per-cell summaries bit-for-bit identically regardless of where the
/// blocks were computed. Ascending block order is the pinned canonical
/// merge order — `Summary::from_slice` means/stds are sensitive to
/// sample order at the ulp level, so any reducer that wants
/// bit-identity with the single-process run must replay this fold, not
/// re-merge finished summaries.
pub(crate) struct CellFold {
    rpc: usize,
    n_policies: usize,
    labels: Vec<(String, String, String)>,
    cells: Vec<CellSummary>,
    /// One buffer per policy of the `(platform, workload)` group in
    /// flight.
    group: Vec<CellBuffer>,
}

impl CellFold {
    pub(crate) fn new(spec: &CampaignSpec) -> Self {
        Self {
            rpc: spec.runs_per_cell(),
            n_policies: spec.policies.len(),
            labels: spec.cell_labels(),
            cells: Vec::with_capacity(spec.cell_count()),
            group: (0..spec.policies.len())
                .map(|_| CellBuffer::default())
                .collect(),
        }
    }

    /// Fold one seed block's runs (one [`RunMetrics`] per policy, in
    /// policy order). Blocks must arrive in ascending block order.
    pub(crate) fn push_block(&mut self, b: usize, runs: &[RunMetrics]) {
        debug_assert_eq!(runs.len(), self.n_policies);
        for (buffer, run) in self.group.iter_mut().zip(runs) {
            buffer.push(run);
        }
        if (b + 1).is_multiple_of(self.rpc) {
            // The group's last seed block: emit its cells in policy
            // order (= cell order).
            let group = b / self.rpc;
            for (pol, buffer) in self.group.iter_mut().enumerate() {
                let cell = group * self.n_policies + pol;
                self.cells.push(buffer.summarize(&self.labels[cell]));
            }
        }
    }

    /// Cells finished so far, in cell order.
    pub(crate) fn cells(&self) -> &[CellSummary] {
        &self.cells
    }

    /// Drain into the finished cell list.
    pub(crate) fn into_cells(self) -> Vec<CellSummary> {
        self.cells
    }
}

/// Marker for blocks skipped because an earlier block already failed —
/// never surfaced to callers, only used to keep the real error message.
const ABORTED: &str = "\u{0}aborted";

/// Streaming seed-block executor shared by [`run_campaign`],
/// [`fold_outcomes`] and the shards (`crate::shard`), over the seed
/// blocks of `spec` named by their **global** indices.
///
/// The unit of parallel work is one **seed block** — a
/// `(platform, workload, seed)` triple: the workload is materialized
/// *once* per block and every policy runs over the shared application
/// list through [`run_policy`]. The flip side of the shared
/// materialization is the parallel grain: a campaign with few seed
/// blocks but many policies (a wide γ sweep over a handful of cases)
/// exposes only `blocks` units of parallelism, each running its policies
/// sequentially.
///
/// Blocks stream back in `blocks` order (each block's simulation is
/// bit-identical wherever and with whomever it runs: the workload is
/// rebound from the spec's seed, never from neighbouring blocks); `fold`
/// receives each block's global index and its outcomes (one per policy,
/// in policy order) and is never called after an error. Once any block
/// fails, the remaining queued blocks return immediately instead of
/// simulating, and the first executed error (with its scenario label) is
/// reported. Note the tradeoff: the short-circuit means *which* error
/// surfaces when several blocks would fail can vary with worker timing —
/// a later block's failure may abort an earlier queued one before it
/// runs. Successful results stay bit-deterministic; only the failure
/// message is timing-dependent.
pub(crate) fn fold_block_subset<A, F>(
    spec: &CampaignSpec,
    runner: &ScenarioRunner,
    blocks: &[usize],
    init: A,
    mut fold: F,
) -> Result<A, String>
where
    F: FnMut(A, usize, &[SimOutcome]) -> A,
{
    spec.validate()?;
    let total = spec.block_count();
    if let Some(&bad) = blocks.iter().find(|&&b| b >= total) {
        return Err(format!(
            "block index {bad} out of range (campaign has {total} blocks)"
        ));
    }
    let platforms: Vec<iosched_model::Platform> = spec
        .platforms
        .iter()
        .map(PlatformSpec::build)
        .collect::<Result<_, _>>()?;
    let config = spec.config.clone().unwrap_or_default();
    let rpc = spec.runs_per_cell();
    let n_workloads = spec.workloads.len();
    let abort = std::sync::atomic::AtomicBool::new(false);

    let (acc, error) = runner.fold(
        blocks.iter().copied(),
        |_, &b| -> Result<Vec<SimOutcome>, String> {
            use std::sync::atomic::Ordering;
            if abort.load(Ordering::Relaxed) {
                return Err(ABORTED.into());
            }
            let group = b / rpc;
            let (p, w, j) = (group / n_workloads, group % n_workloads, b % rpc);
            let workload = spec.bound_workload(w, j);
            let block_label = || {
                let seed_tag = spec
                    .seeds
                    .get(j)
                    .map_or_else(String::new, |s| format!("/{s}"));
                format!(
                    "{}/{}/{}{seed_tag}",
                    spec.name,
                    spec.platforms[p].label(),
                    workload.label()
                )
            };
            let run_block = || -> Result<Vec<SimOutcome>, String> {
                let apps = workload
                    .materialize(&platforms[p])
                    .map_err(|e| format!("{}: {e}", block_label()))?;
                // Every policy runs over this one materialization; stream
                // workloads run under open-system semantics.
                let arrivals = if workload.is_open() {
                    Arrivals::Open(&apps)
                } else {
                    Arrivals::Closed(&apps)
                };
                spec.policies
                    .iter()
                    .map(|&policy| {
                        run_policy(&platforms[p], arrivals, policy, &config, None).map_err(|e| {
                            match e {
                                RunError::Build(e) => format!("{}/{e}", block_label()),
                                RunError::Engine(e) => {
                                    format!("{}/{}: {e}", block_label(), policy.serde_name())
                                }
                            }
                        })
                    })
                    .collect()
            };
            run_block().inspect_err(|_| abort.store(true, Ordering::Relaxed))
        },
        (init, None::<String>),
        |(acc, error), i, result| {
            if error.is_some() {
                return (acc, error);
            }
            match result {
                Ok(outcomes) => (fold(acc, blocks[i], &outcomes), None),
                // Skip the abort marker: the block carrying the real
                // error message is folded too (every produced result is).
                Err(e) if e == ABORTED => (acc, None),
                Err(e) => (acc, Some(e)),
            }
        },
    );
    match error {
        Some(e) => Err(e),
        None => Ok(acc),
    }
}

/// Stream every run's outcome of a campaign through `fold`, with
/// workloads materialized once per seed block and shared across the
/// policy axis.
///
/// `fold` is called once per run with the run's expansion index (the
/// [`CampaignSpec::scenario_spec`] index) and its outcome. Calls arrive
/// in deterministic *block* order — all policies of one
/// `(platform, workload, seed)` block before the next block — which is
/// not ascending run order; use the index to place results.
pub fn fold_outcomes<A, F>(
    spec: &CampaignSpec,
    runner: &ScenarioRunner,
    init: A,
    mut fold: F,
) -> Result<A, String>
where
    F: FnMut(A, usize, &SimOutcome) -> A,
{
    let rpc = spec.runs_per_cell();
    let n_policies = spec.policies.len();
    let blocks: Vec<usize> = (0..spec.block_count()).collect();
    fold_block_subset(spec, runner, &blocks, init, |mut acc, b, outcomes| {
        let (group, j) = (b / rpc, b % rpc);
        for (pol, outcome) in outcomes.iter().enumerate() {
            acc = fold(acc, (group * n_policies + pol) * rpc + j, outcome);
        }
        acc
    })
}

/// Execute a campaign on `runner`, folding outcomes into per-cell
/// summaries as they stream back in input order.
///
/// Built on the seed-block executor (`fold_block_subset`): the fold holds
/// the sample buffers of the one `(platform, workload)` group currently
/// in flight plus the finished [`CellSummary`]s —
/// `O(cells + policies × seeds)` numbers, never `O(runs)` simulation
/// outcomes. Outcomes are folded in the same `(cell, seed)` order a
/// sequential per-scenario loop produces, so the aggregates are
/// bit-identical to it and thread-count invariant.
pub fn run_campaign(
    spec: &CampaignSpec,
    runner: &ScenarioRunner,
) -> Result<CampaignResult, String> {
    run_campaign_observed(spec, runner, |_| {})
}

/// [`run_campaign`] with a progress hook: `observer` is called once per
/// finished cell, in cell order, the moment the cell's last seed block
/// folds in — so long sweeps can stream per-cell rows instead of going
/// silent until the whole result is buffered. The returned result is
/// identical to [`run_campaign`]'s.
pub fn run_campaign_observed(
    spec: &CampaignSpec,
    runner: &ScenarioRunner,
    mut observer: impl FnMut(&CellSummary),
) -> Result<CampaignResult, String> {
    let mut seen = 0usize;
    let blocks: Vec<usize> = (0..spec.block_count()).collect();
    let fold = fold_block_subset(
        spec,
        runner,
        &blocks,
        CellFold::new(spec),
        |mut fold, b, outcomes| {
            let runs: Vec<RunMetrics> = outcomes.iter().map(RunMetrics::from_outcome).collect();
            fold.push_block(b, &runs);
            for cell in &fold.cells()[seen..] {
                observer(cell);
            }
            seen = fold.cells().len();
            fold
        },
    )?;
    Ok(CampaignResult {
        name: spec.name.clone(),
        total_runs: spec.total_runs(),
        cells: fold.into_cells(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_core::heuristics::{BasePolicy, PolicyKind};
    use iosched_model::{Bytes, Time};
    use iosched_sim::{simulate, simulate_open};
    use iosched_workload::MixConfig;

    /// Run `idx` of `spec`, computed without [`run_policy`]: materialize
    /// its scenario spec and call the engine's one-shot entry points.
    fn reference_run(spec: &CampaignSpec, idx: usize) -> SimOutcome {
        let scenario = spec.scenario_spec(idx);
        let platform = scenario.platform.build().unwrap();
        let apps = scenario.workload.materialize(&platform).unwrap();
        let mut policy = scenario.policy.build(&platform, &apps).unwrap();
        let config = scenario.config.unwrap_or_default();
        let run = if scenario.workload.is_open() {
            simulate_open
        } else {
            simulate
        };
        run(&platform, &apps, policy.as_mut(), &config).unwrap()
    }

    fn small_campaign() -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            platforms: vec![PlatformSpec::Preset("vesta".into())],
            workloads: vec![
                WorkloadSpec::Congestion { seed: 0 },
                WorkloadSpec::Mix {
                    config: MixConfig::fig6a(),
                    seed: 0,
                },
            ],
            policies: vec![
                PolicySpec::Kind(PolicyKind::plain(BasePolicy::MaxSysEff)),
                PolicySpec::FairShare,
            ],
            seeds: vec![1, 2, 3],
            config: None,
            threads: None,
        }
    }

    #[test]
    fn expansion_counts_and_order() {
        let spec = small_campaign();
        assert_eq!(spec.cell_count(), 4);
        assert_eq!(spec.total_runs(), 12);
        // Seeds are innermost: the first three runs share a cell.
        let specs: Vec<ScenarioSpec> = spec.scenario_specs().collect();
        assert_eq!(specs.len(), 12);
        assert_eq!(specs[0].policy, specs[2].policy);
        assert_eq!(specs[0].workload, spec.workloads[0].with_seed(1));
        assert_eq!(specs[1].workload, spec.workloads[0].with_seed(2));
        // Cell boundary: run 3 flips to the second policy.
        assert_eq!(specs[3].policy, PolicySpec::FairShare);
        // Workload flips after both policies finished their seeds.
        assert_eq!(specs[6].workload, spec.workloads[1].with_seed(1));
        // Decompose is the inverse of the construction order.
        for (idx, s) in specs.iter().enumerate() {
            let (p, w, pol, j) = spec.decompose(idx);
            assert_eq!(s.platform, spec.platforms[p]);
            assert_eq!(s.policy, spec.policies[pol]);
            assert_eq!(s.workload, spec.bound_workload(w, j));
        }
    }

    #[test]
    fn empty_seed_axis_runs_templates_as_is() {
        let mut spec = small_campaign();
        spec.seeds.clear();
        assert_eq!(spec.total_runs(), spec.cell_count());
        let first = spec.scenario_spec(0);
        assert_eq!(first.workload, spec.workloads[0]);
    }

    #[test]
    fn run_campaign_produces_one_summary_per_cell() {
        let spec = small_campaign();
        let result = run_campaign(&spec, &ScenarioRunner::with_threads(2)).unwrap();
        assert_eq!(result.cells.len(), spec.cell_count());
        assert_eq!(result.total_runs, spec.total_runs());
        for cell in &result.cells {
            assert_eq!(cell.runs, 3);
            assert!(cell.sys_efficiency.mean > 0.0 && cell.sys_efficiency.mean <= 1.0);
            assert!(cell.dilation.min >= 1.0);
            assert!(cell.upper_limit.mean >= cell.sys_efficiency.mean - 1e-9);
        }
        // Cells carry the axis labels in cell order.
        assert_eq!(result.cells[0].workload, "congestion");
        assert_eq!(result.cells[0].policy, "maxsyseff");
        assert_eq!(result.cells[1].policy, "fairshare");
        assert!(result.cells[2].workload.starts_with("mix("));
        assert!(result.cell("congestion", "fairshare").is_some());
    }

    #[test]
    fn run_campaign_matches_manual_sequential_fold() {
        let spec = small_campaign();
        let result = run_campaign(&spec, &ScenarioRunner::with_threads(4)).unwrap();
        // Reference: run every scenario sequentially, fold by hand.
        let mut cell_effs: Vec<Vec<f64>> = vec![Vec::new(); spec.cell_count()];
        for idx in 0..spec.total_runs() {
            let outcome = reference_run(&spec, idx);
            cell_effs[idx / spec.runs_per_cell()].push(outcome.report.sys_efficiency);
        }
        for (cell, effs) in result.cells.iter().zip(&cell_effs) {
            let reference = Summary::from_slice(effs).unwrap();
            assert_eq!(
                cell.sys_efficiency.mean.to_bits(),
                reference.mean.to_bits(),
                "cell {}/{} diverged",
                cell.workload,
                cell.policy
            );
            assert_eq!(cell.sys_efficiency.std.to_bits(), reference.std.to_bits());
        }
    }

    #[test]
    fn fold_outcomes_indices_match_scenario_expansion() {
        let spec = small_campaign();
        let mut by_idx: Vec<Option<f64>> = vec![None; spec.total_runs()];
        fold_outcomes(
            &spec,
            &ScenarioRunner::with_threads(2),
            (),
            |(), idx, out| {
                assert!(by_idx[idx].is_none(), "run {idx} folded twice");
                by_idx[idx] = Some(out.report.sys_efficiency);
            },
        )
        .unwrap();
        // Every run index observed exactly once, bit-identical to the
        // per-scenario expansion at the same index.
        for (idx, folded) in by_idx.iter().enumerate() {
            let direct = reference_run(&spec, idx);
            assert_eq!(
                folded.expect("run folded").to_bits(),
                direct.report.sys_efficiency.to_bits(),
                "run {idx} diverged"
            );
        }
    }

    #[test]
    fn pooled_dilation_merges_cells_like_one_big_sample() {
        let spec = small_campaign();
        let result = run_campaign(&spec, &ScenarioRunner::with_threads(2)).unwrap();
        // Reference: every fairshare run's dilation as one flat sample.
        let mut all = Vec::new();
        for idx in 0..spec.total_runs() {
            let (_, _, pol, _) = spec.decompose(idx);
            if spec.policies[pol].name() == "fairshare" {
                all.push(reference_run(&spec, idx).report.dilation);
            }
        }
        let pooled = result.pooled_dilation("fairshare").expect("policy exists");
        let reference = Summary::from_slice(&all).unwrap();
        assert_eq!(pooled.n, reference.n);
        assert!((pooled.mean - reference.mean).abs() < 1e-12);
        assert!((pooled.std - reference.std).abs() < 1e-12);
        assert_eq!(pooled.min.to_bits(), reference.min.to_bits());
        assert_eq!(pooled.max.to_bits(), reference.max.to_bits());
        // Under the reservoir cap the pooled quantiles are exact too.
        assert_eq!(pooled.median.to_bits(), reference.median.to_bits());
        assert!(result.pooled_dilation("lottery").is_none());
    }

    #[test]
    fn invalid_campaigns_are_rejected() {
        let mut spec = small_campaign();
        spec.policies.clear();
        assert!(run_campaign(&spec, &ScenarioRunner::with_threads(1)).is_err());
        let mut spec = small_campaign();
        spec.platforms = vec![PlatformSpec::Preset("summit".into())];
        assert!(spec.validate().is_err());
        let mut spec = small_campaign();
        spec.threads = Some(0);
        assert!(spec.validate().is_err());
        let mut spec = small_campaign();
        spec.workloads = vec![WorkloadSpec::Explicit(vec![])];
        assert!(spec.validate().is_err());
        // Programmatically built periodic factories with degenerate
        // search knobs (whose names would not parse back) are caught by
        // validation, not first serialized into an unreadable file.
        let mut spec = small_campaign();
        spec.policies = vec![PolicySpec::Periodic(
            iosched_bench_periodic_factory().with_epsilon(0.0),
        )];
        assert!(spec.validate().is_err());
        assert!(spec.to_json().is_err(), "write path must validate too");
        let mut spec = small_campaign();
        spec.policies = vec![PolicySpec::Periodic(
            iosched_bench_periodic_factory().with_max_factor(0.5),
        )];
        assert!(spec.validate().is_err());
    }

    fn iosched_bench_periodic_factory() -> crate::PeriodicFactory {
        crate::PeriodicFactory::new(iosched_core::periodic::InsertionHeuristic::Congestion)
    }

    #[test]
    fn campaign_json_roundtrip() {
        let spec = small_campaign();
        let json = spec.to_json().unwrap();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
        // Policies serialize as their name strings.
        assert!(json.contains("\"maxsyseff\""));
        assert!(json.contains("\"fairshare\""));
        // Platform presets serialize as bare names.
        assert!(json.contains("\"vesta\""));
    }

    #[test]
    fn scenario_spec_json_roundtrip_and_build() {
        let spec = ScenarioSpec {
            label: "one".into(),
            platform: PlatformSpec::Native("intrepid".into()),
            workload: WorkloadSpec::Congestion { seed: 5 },
            policy: PolicySpec::parse("priority-minmax-0.25").unwrap(),
            config: Some(SimConfig {
                use_burst_buffer: true,
                ..SimConfig::default()
            }),
        };
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // The parsed spec resolves into a run: the native platform
        // carries the burst buffer its config asks for.
        let platform = back.platform.build().unwrap();
        let apps = back.workload.materialize(&platform).unwrap();
        assert!(!apps.is_empty());
        let config = back.config.unwrap();
        assert!(config.use_burst_buffer);
        assert_eq!(back.policy.name(), "priority-minmax-0.25");
        let out = run_policy(
            &platform,
            Arrivals::Closed(&apps),
            back.policy,
            &config,
            None,
        )
        .unwrap();
        assert_eq!(out.report.per_app.len(), apps.len());
    }

    fn two_periodic_apps() -> Vec<AppSpec> {
        vec![
            AppSpec::periodic(0, Time::ZERO, 256, Time::secs(60.0), Bytes::gib(100.0), 3),
            AppSpec::periodic(1, Time::ZERO, 512, Time::secs(45.0), Bytes::gib(150.0), 3),
        ]
    }

    #[test]
    fn run_policy_runs_like_a_direct_simulate_call() {
        let platform = Platform::vesta();
        let apps = two_periodic_apps();
        let config = SimConfig::default();
        let policy = PolicySpec::parse("maxsyseff").unwrap();
        let out = run_policy(&platform, Arrivals::Closed(&apps), policy, &config, None).unwrap();
        let direct = simulate(
            &platform,
            &apps,
            &mut iosched_core::heuristics::MaxSysEff,
            &config,
        )
        .unwrap();
        assert_eq!(out.events, direct.events);
        assert_eq!(
            out.report.sys_efficiency.to_bits(),
            direct.report.sys_efficiency.to_bits()
        );
        assert!(out.decision_trace.is_none());
        // The trace attaches once, before the run, and moves no bit.
        let traced = run_policy(
            &platform,
            Arrivals::Closed(&apps),
            policy,
            &config,
            Some(64),
        )
        .unwrap();
        assert_eq!(traced.events, direct.events);
        assert_eq!(
            traced.report.dilation.to_bits(),
            direct.report.dilation.to_bits()
        );
        assert!(traced.decision_trace.is_some_and(|t| t.len() <= 64));
    }

    #[test]
    fn run_policy_runs_an_offline_periodic_policy() {
        let platform = Platform::vesta();
        let apps = two_periodic_apps();
        let policy = PolicySpec::parse("periodic:cong").unwrap();
        let out = run_policy(
            &platform,
            Arrivals::Closed(&apps),
            policy,
            &SimConfig::default(),
            None,
        )
        .unwrap();
        assert!(out.report.sys_efficiency > 0.0);
        assert!(out.report.dilation >= 1.0);
        // A roster the search cannot plan is a build error, not an
        // engine error.
        let err = run_policy(
            &platform,
            Arrivals::Closed(&[]),
            policy,
            &SimConfig::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Build(_)), "{err:?}");
    }

    #[test]
    fn run_policy_pulls_a_stream_lazily_or_materialized_alike() {
        let platform = Platform::intrepid();
        let stream = WorkloadSpec::Stream {
            arrivals: iosched_workload::ArrivalProcess::Poisson { rate: 0.001 },
            template: Box::new(WorkloadSpec::Congestion { seed: 0 }),
            stop: iosched_workload::StopRule::Apps(40),
            seed: 1,
        };
        let apps = stream.materialize(&platform).unwrap();
        let config = SimConfig::default();
        for name in ["fairshare", "control:pi", "periodic:cong:tmax=32"] {
            let policy = PolicySpec::parse(name).unwrap();
            let lazy = run_policy(&platform, Arrivals::Lazy(&stream), policy, &config, None)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let open = run_policy(&platform, Arrivals::Open(&apps), policy, &config, None)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(lazy.events, open.events, "{name}");
            assert_eq!(
                lazy.report.dilation.to_bits(),
                open.report.dilation.to_bits(),
                "{name}"
            );
            assert_eq!(lazy.steady, open.steady, "{name}");
        }
        // A materialized stream is validated as `simulate_open` validates
        // it: a release out of order is an engine error.
        let mut shuffled = apps.clone();
        shuffled.swap(0, 5);
        let err = run_policy(
            &platform,
            Arrivals::Open(&shuffled),
            PolicySpec::FairShare,
            &config,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Engine(_)), "{err:?}");
    }

    #[test]
    fn sim_config_json_is_lenient_about_missing_fields() {
        let config: SimConfig = serde_json::from_str(r#"{"use_burst_buffer": true}"#).unwrap();
        assert!(config.use_burst_buffer);
        assert_eq!(config.max_events, SimConfig::default().max_events);
        assert!(config.external_load.is_none());
        // …but not about unknown ones (typos must not silently no-op).
        assert!(serde_json::from_str::<SimConfig>(r#"{"burst": true}"#).is_err());
    }

    #[test]
    fn platform_spec_strings_resolve() {
        assert_eq!(
            PlatformSpec::Preset("mira".into()).build().unwrap().name,
            "mira"
        );
        let native = PlatformSpec::Native("intrepid".into()).build().unwrap();
        assert!(native.burst_buffer.is_some());
        assert!(native.interference.is_penalizing());
        assert!(PlatformSpec::Preset("summit".into()).build().is_err());
        // Serde forms.
        let parsed: PlatformSpec = serde_json::from_str("\"native:vesta\"").unwrap();
        assert_eq!(parsed, PlatformSpec::Native("vesta".into()));
        assert!(serde_json::from_str::<PlatformSpec>("\"native:summit\"").is_err());
        let custom = PlatformSpec::Custom(iosched_model::Platform::vesta());
        let json = serde_json::to_string(&custom).unwrap();
        assert_eq!(serde_json::from_str::<PlatformSpec>(&json).unwrap(), custom);
    }

    #[test]
    fn campaign_errors_carry_the_scenario_label() {
        // An explicit workload too big for vesta fails at materialization.
        let spec = CampaignSpec {
            name: "broken".into(),
            platforms: vec![PlatformSpec::Preset("vesta".into())],
            workloads: vec![WorkloadSpec::Mix {
                config: MixConfig {
                    // 40 very-large apps cannot scale into Vesta (each
                    // needs ≥ 1 node but sampling drives the sum over).
                    small: 0,
                    large: 0,
                    very_large: 5000,
                    ..MixConfig::fig6a()
                },
                seed: 0,
            }],
            policies: vec![PolicySpec::FairShare],
            seeds: vec![0],
            config: None,
            threads: None,
        };
        let err = run_campaign(&spec, &ScenarioRunner::with_threads(1)).unwrap_err();
        assert!(err.contains("broken/"), "error lacks label: {err}");
    }
}

//! # iosched-cli
//!
//! Command-line front end for the workspace: generate scenario files, run
//! any scheduler over them in the fluid simulator, and build periodic
//! schedules — the workflow a system administrator would use to evaluate
//! the paper's heuristics on their own machine description. `iosched
//! repro` renders the paper's own figures and tables from
//! [`iosched_bench::repro`].
//!
//! ```text
//! iosched platforms
//! iosched policies
//! iosched generate --kind congested --platform intrepid --seed 7 -o scenario.json
//! iosched generate --kind mix-b     --platform intrepid --seed 3 -o mix.json
//! iosched simulate scenario.json --policy priority-maxsyseff [--burst-buffer]
//! iosched simulate scenario.json --policy periodic:cong
//! iosched simulate scenario.json --policy all
//! iosched periodic scenario.json --objective dilation --epsilon 0.05
//! iosched campaign campaign.json [--threads N]
//! iosched repro fig06 [--runs N]
//! ```
//!
//! Scenario files are plain JSON (`serde`) holding the platform and the
//! application list, so they can be authored by hand or produced by any
//! external tool. Campaign files describe a whole cartesian sweep —
//! `platforms × workloads × policies × seeds` — that expands lazily and
//! streams through the parallel [`iosched_bench::ScenarioRunner`] into
//! per-cell aggregates (see the README's "Campaign files" section):
//!
//! ```json
//! {
//!   "name": "quick",
//!   "platforms": ["intrepid"],
//!   "workloads": [{"Congestion": {"seed": 0}}],
//!   "policies": ["maxsyseff", "mindilation", "fairshare"],
//!   "seeds": [0, 1, 2, 3],
//!   "config": null,
//!   "threads": null
//! }
//! ```

use iosched_bench::campaign::{
    run_campaign_observed, CampaignResult, CampaignSpec, CellSummary, ScenarioSpec,
};
use iosched_bench::report::Table;
use iosched_bench::runner::ScenarioRunner;
use iosched_bench::scenario::PolicySpec;
use iosched_bench::shard;
use iosched_core::periodic::{
    InsertionHeuristic, PeriodSearch, PeriodicAppSpec, PeriodicObjective,
};
use iosched_core::policy::OnlinePolicy;
use iosched_model::{app::validate_scenario, AppSpec, Platform};
use iosched_sim::{simulate, SimConfig};
use iosched_workload::congestion::congested_moment;
use iosched_workload::MixConfig;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A scenario file: one platform plus its applications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioFile {
    /// The machine description.
    pub platform: Platform,
    /// The §2.1 applications.
    pub apps: Vec<AppSpec>,
}

impl ScenarioFile {
    /// Validate platform, applications and processor budget.
    pub fn validate(&self) -> Result<(), String> {
        validate_scenario(&self.platform, &self.apps).map_err(|e| e.to_string())
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Parse from JSON and validate.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let file: Self = serde_json::from_str(s).map_err(|e| e.to_string())?;
        file.validate()?;
        Ok(file)
    }
}

/// Resolve a platform preset by name. (The name table lives in
/// [`iosched_bench::campaign::platform_preset`] so the CLI, campaign
/// files and experiments agree on one vocabulary.)
pub fn platform_by_name(name: &str) -> Result<Platform, String> {
    iosched_bench::campaign::platform_preset(name)
}

/// Resolve a policy by the names used throughout the reports and
/// instantiate it *for a scenario* — the registry's two-stage build.
/// `all` is handled by the caller. Online policies ignore the scenario;
/// offline `periodic:*` policies run their §3.2 schedule search over it.
/// (Name resolution lives in
/// [`iosched_core::registry::PolicyFactory`] — re-exported as
/// [`iosched_bench::scenario::PolicySpec`] — so the CLI, the batch layer
/// and the experiment runners agree on one vocabulary.)
pub fn policy_for_scenario(
    name: &str,
    scenario: &ScenarioFile,
) -> Result<Box<dyn OnlinePolicy>, String> {
    PolicySpec::parse(name)?.build(&scenario.platform, &scenario.apps)
}

/// Scenario kinds `generate` can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenerateKind {
    /// A seeded congested moment (Tables 1–2 style).
    Congested,
    /// Fig. 6(a): 10 large applications at 20 % I/O.
    MixA,
    /// Fig. 6(b): 50 small + 5 large at 20 % I/O.
    MixB,
    /// Fig. 6(c): 50 small + 5 large at 35 % I/O.
    MixC,
}

impl GenerateKind {
    /// Parse a `--kind` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "congested" => Ok(Self::Congested),
            "mix-a" => Ok(Self::MixA),
            "mix-b" => Ok(Self::MixB),
            "mix-c" => Ok(Self::MixC),
            other => Err(format!(
                "unknown kind '{other}' (expected congested, mix-a, mix-b or mix-c)"
            )),
        }
    }
}

/// `iosched platforms`: list the presets.
#[must_use]
pub fn cmd_platforms() -> String {
    let mut out = String::from("platform   nodes      b (GiB/s)  B (GiB/s)  saturation\n");
    for p in [Platform::intrepid(), Platform::mira(), Platform::vesta()] {
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:<10.3} {:<10.1} {} nodes",
            p.name,
            p.procs,
            p.proc_bw.as_gib_per_sec(),
            p.total_bw.as_gib_per_sec(),
            p.saturation_procs(),
        );
    }
    out
}

/// `iosched generate`: build a scenario.
pub fn cmd_generate(kind: GenerateKind, platform: &str, seed: u64) -> Result<ScenarioFile, String> {
    let platform = platform_by_name(platform)?;
    let apps = match kind {
        GenerateKind::Congested => congested_moment(&platform, seed),
        GenerateKind::MixA => MixConfig::fig6a().generate(&platform, seed),
        GenerateKind::MixB => MixConfig::fig6b().generate(&platform, seed),
        GenerateKind::MixC => MixConfig::fig6c().generate(&platform, seed),
    };
    let file = ScenarioFile { platform, apps };
    file.validate()?;
    Ok(file)
}

/// `iosched simulate`: run one policy (or every standard one) over a
/// scenario; returns the rendered report.
pub fn cmd_simulate(
    scenario: &ScenarioFile,
    policy_name: &str,
    burst_buffer: bool,
) -> Result<String, String> {
    scenario.validate()?;
    let config = SimConfig {
        use_burst_buffer: burst_buffer,
        ..SimConfig::default()
    };
    let names: Vec<String> = if policy_name == "all" {
        PolicySpec::full_roster()
            .iter()
            .map(PolicySpec::name)
            .collect()
    } else {
        vec![policy_name.to_string()]
    };
    let mut out = format!(
        "{} applications on {} (B = {:.1} GiB/s{})\n\n",
        scenario.apps.len(),
        scenario.platform.name,
        scenario.platform.total_bw.as_gib_per_sec(),
        if burst_buffer {
            ", burst buffer on"
        } else {
            ""
        },
    );
    let _ = writeln!(
        out,
        "{:<30} {:>14} {:>10} {:>12}",
        "policy", "SysEfficiency", "Dilation", "makespan"
    );
    // The upper limit `Σβ·ρ / Σβ` depends on the applications only, and
    // every run folds it over the same `AppId`-ordered outcomes: any
    // run's report holds the same bits.
    let mut upper = 0.0;
    for name in names {
        let mut policy = policy_for_scenario(&name, scenario)?;
        let result = simulate(&scenario.platform, &scenario.apps, policy.as_mut(), &config)
            .map_err(|e| e.to_string())?;
        upper = result.report.upper_limit;
        let _ = writeln!(
            out,
            "{:<30} {:>13.2}% {:>10.2} {:>11.0}s",
            name,
            result.report.sys_efficiency * 100.0,
            result.report.dilation,
            result.report.makespan().as_secs(),
        );
    }
    let _ = writeln!(out, "{:<30} {:>13.2}%", "upper limit", upper * 100.0);
    Ok(out)
}

/// One-line description of a roster member for `iosched policies`.
fn describe_policy(spec: &PolicySpec) -> String {
    use iosched_core::heuristics::BasePolicy;
    match spec {
        PolicySpec::Kind(kind) => {
            let base = match kind.base {
                BasePolicy::RoundRobin => "FCFS + fairness heuristic (§3.1)",
                BasePolicy::MinDilation => "Dilation-oriented heuristic (§3.1)",
                BasePolicy::MaxSysEff => "SysEfficiency-oriented heuristic (§3.1)",
                BasePolicy::MinMax(_) => "threshold trade-off heuristic (§3.1)",
            };
            if kind.priority {
                format!("{base}, disk-locality Priority wrapper; Fig. 6, Tables 1-2")
            } else {
                format!("{base}; Fig. 6, Tables 1-2")
            }
        }
        PolicySpec::FairShare => {
            "uncoordinated max-min sharing (native-scheduler baseline; Figs. 8-13)".into()
        }
        PolicySpec::Fcfs => "strict first-come-first-served baseline (§1)".into(),
        PolicySpec::Periodic(p) => {
            let (heuristic, used_by) = match p.heuristic {
                iosched_core::periodic::InsertionHeuristic::Congestion => {
                    ("Insert-In-Schedule-Cong", "Fig. 4, eps ablation")
                }
                iosched_core::periodic::InsertionHeuristic::Throughput => {
                    ("Insert-In-Schedule-Throu", "§7 outlook sweeps")
                }
            };
            format!("periodic schedule, {heuristic} + (1+eps) period search (§3.2); {used_by}")
        }
        PolicySpec::Control(c) => format!(
            "adaptive PI feedback loop on the engine's congestion telemetry \
             (setpoint {} delivered utilization); storm campaigns",
            c.setpoint
        ),
    }
}

/// `iosched policies`: the complete registry roster — every serde name
/// the CLI, scenario files and campaign JSON accept, online and offline.
#[must_use]
pub fn cmd_policies() -> String {
    let mut table = Table::new(["policy", "stage", "description"]);
    for spec in PolicySpec::complete_roster() {
        table.row([
            spec.serde_name(),
            if spec.is_offline() {
                "offline".into()
            } else {
                "online".into()
            },
            describe_policy(&spec),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\nGrammar: minmax-<gamma in [0,1]>, priority-<heuristic>,\n\
         periodic:<cong|throu>[:<dilation|syseff>][:eps=E][:tmax=F]\n\
         (offline policies build their schedule per scenario: the workload\n\
         must be periodic, i.e. w(k,i) = w(k) for every instance), and\n\
         control:pi[:kp=K][:ki=I][:set=S][:win=W] — the closed feedback\n\
         loop on the engine's congestion telemetry (set in (0,1], win > 0).\n",
    );
    out
}

/// `iosched telemetry`: run one policy with the telemetry series
/// enabled, render the per-run congestion record, and return it together
/// with its JSON export.
pub fn cmd_telemetry(
    scenario: &ScenarioFile,
    policy_name: &str,
    external_load: Option<iosched_sim::ExternalLoad>,
) -> Result<(String, String), String> {
    scenario.validate()?;
    let config = SimConfig {
        telemetry: true,
        external_load,
        ..SimConfig::default()
    };
    let mut policy = policy_for_scenario(policy_name, scenario)?;
    let result = simulate(&scenario.platform, &scenario.apps, policy.as_mut(), &config)
        .map_err(|e| e.to_string())?;
    let telemetry = result
        .telemetry
        .ok_or("engine produced no telemetry summary")?;
    let mut out = format!(
        "{} on {} ({} events over {:.0}s simulated)\n\n",
        policy_name,
        scenario.platform.name,
        result.events,
        result.end_time.as_secs(),
    );
    let _ = writeln!(
        out,
        "SysEfficiency {:.2}%   Dilation {:.2}\n",
        result.report.sys_efficiency * 100.0,
        result.report.dilation,
    );
    let _ = writeln!(
        out,
        "telemetry ({} intervals over {:.0}s of activity):",
        telemetry.samples, telemetry.busy_secs
    );
    let _ = writeln!(
        out,
        "  utilization  mean {:.3} (time-weighted {:.3})  p95 {:.3}  p99 {:.3}  max {:.3}",
        telemetry.utilization.mean,
        telemetry.mean_utilization,
        telemetry.utilization.p95,
        telemetry.utilization.p99,
        telemetry.utilization.max,
    );
    let _ = writeln!(
        out,
        "  contention   mean {:.3} (time-weighted {:.3})  p95 {:.3}  p99 {:.3}  max {:.3}",
        telemetry.contention.mean,
        telemetry.mean_contention,
        telemetry.contention.p95,
        telemetry.contention.p99,
        telemetry.contention.max,
    );
    let _ = writeln!(
        out,
        "  peak backlog {:.1} GiB   peak pending {}",
        telemetry.peak_backlog_gib, telemetry.peak_pending,
    );
    let json = serde_json::to_string_pretty(&telemetry).map_err(|e| e.to_string())?;
    Ok((out, json))
}

/// `iosched stream`: run one open-system scenario (a
/// [`iosched_workload::WorkloadSpec::Stream`] workload, or any workload
/// under a `warmup`/`horizon` window) and render + JSON-export the
/// windowed steady-state record. Online and `control:*` policies drive
/// the lazy stream directly (peak memory tracks concurrency); offline
/// `periodic:*` policies materialize the roster first — they need the
/// whole stream to plan.
pub fn cmd_stream(spec: &ScenarioSpec) -> Result<(String, String), String> {
    let platform = spec.platform.build()?;
    let config = spec.config.clone().unwrap_or_default();
    if !spec.workload.is_open() && config.horizon.is_none() && config.warmup.get() <= 0.0 {
        return Err(
            "stream needs an open workload (a \"Stream\" spec) or a warmup/horizon \
             window in the config; use `iosched simulate` for plain closed rosters"
                .into(),
        );
    }
    let result = if spec.policy.is_offline() || !spec.workload.is_open() {
        // Offline policies plan over the whole roster; closed workloads
        // come materialized anyway.
        let apps = spec.workload.materialize(&platform)?;
        let mut policy = spec.policy.build(&platform, &apps)?;
        if spec.workload.is_open() {
            iosched_sim::simulate_open(&platform, &apps, policy.as_mut(), &config)
        } else {
            simulate(&platform, &apps, policy.as_mut(), &config)
        }
    } else {
        let mut policy = spec.policy.build(&platform, &[])?;
        iosched_sim::simulate_stream(
            &platform,
            spec.workload.app_source(&platform)?,
            policy.as_mut(),
            &config,
        )
    }
    .map_err(|e| e.to_string())?;
    let steady = result
        .steady
        .clone()
        .ok_or("engine produced no steady-state summary")?;
    let mut out = format!(
        "{} under {} on {} ({} events over {:.0}s simulated)\n\n",
        spec.workload.label(),
        spec.policy.name(),
        platform.name,
        result.events,
        result.end_time.as_secs(),
    );
    let _ = writeln!(
        out,
        "applications: {} admitted, {} completed in the window, {} left in the system",
        steady.admitted, steady.completed, steady.left_in_system,
    );
    let _ = writeln!(
        out,
        "steady state over [{:.0}s, {:.0}s] ({:.0}s observed):",
        steady.warmup_secs,
        result.end_time.as_secs(),
        steady.window_secs,
    );
    let _ = writeln!(
        out,
        "  stretch      mean {:.2}  max {:.2}",
        steady.mean_stretch, steady.max_stretch,
    );
    let _ = writeln!(
        out,
        "  I/O queue    mean {:.2} applications",
        steady.mean_queue,
    );
    let _ = writeln!(
        out,
        "  utilization  mean {:.3} of the PFS",
        steady.mean_utilization,
    );
    let _ = writeln!(
        out,
        "  throughput   {:.1} completions/hour",
        steady.throughput_per_hour,
    );
    if let Some(telemetry) = &result.telemetry {
        let _ = writeln!(
            out,
            "telemetry: contention mean {:.2} p99 {:.2}, peak backlog {:.1} GiB, peak pending {}",
            telemetry.mean_contention,
            telemetry.contention.p99,
            telemetry.peak_backlog_gib,
            telemetry.peak_pending,
        );
    }
    let json = serde_json::to_string_pretty(&StreamRecord {
        workload: spec.workload.label(),
        policy: spec.policy.name(),
        events: result.events,
        end_secs: result.end_time.as_secs(),
        steady,
        telemetry: result.telemetry,
    })
    .map_err(|e| e.to_string())?;
    Ok((out, json))
}

/// JSON export of one `iosched stream` run: the windowed record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamRecord {
    /// Workload label (seed-free).
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Scheduling events processed.
    pub events: usize,
    /// Final simulated second.
    pub end_secs: f64,
    /// The warmup-trimmed steady-state window.
    pub steady: iosched_sim::SteadySummary,
    /// Per-run congestion record (present iff the config set
    /// `telemetry`).
    pub telemetry: Option<iosched_sim::TelemetrySummary>,
}

/// `iosched periodic`: run the §3.2 period search over a scenario of
/// periodic applications.
pub fn cmd_periodic(
    scenario: &ScenarioFile,
    objective: &str,
    epsilon: f64,
) -> Result<String, String> {
    scenario.validate()?;
    let (objective, heuristic) = match objective {
        "dilation" => (PeriodicObjective::Dilation, InsertionHeuristic::Congestion),
        "syseff" | "sysefficiency" => (
            PeriodicObjective::SysEfficiency,
            InsertionHeuristic::Throughput,
        ),
        other => return Err(format!("unknown objective '{other}' (dilation | syseff)")),
    };
    if epsilon <= 0.0 {
        return Err("epsilon must be positive".into());
    }
    let apps: Result<Vec<PeriodicAppSpec>, _> = scenario
        .apps
        .iter()
        .map(PeriodicAppSpec::from_app)
        .collect();
    let apps = apps.map_err(|e| e.to_string())?;
    let search = PeriodSearch::new(objective).with_epsilon(epsilon);
    let result = search
        .run(&scenario.platform, &apps, heuristic)
        .ok_or("empty application set")?;
    result
        .schedule
        .validate(&scenario.platform)
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "best period T = {:.2}s  ({} candidates, {})\n\
         SysEfficiency {:.2}%   Dilation {}\n\nper application:\n",
        result.schedule.period.as_secs(),
        result.candidates_tried,
        heuristic.name(),
        result.report.sys_efficiency * 100.0,
        if result.report.dilation.is_finite() {
            format!("{:.2}", result.report.dilation)
        } else {
            "inf".into()
        },
    );
    for o in &result.report.per_app {
        let _ = writeln!(
            out,
            "  {:<8} n_per = {:<4} rho_tilde = {:.3}  dilation = {:.2}",
            o.app.to_string(),
            o.n_per,
            o.rho_tilde,
            o.dilation(),
        );
    }
    Ok(out)
}

/// One-line per-cell progress row, streamed to stderr as cells finish
/// (stdout keeps the stable aligned table for scripts and tests).
fn cell_progress_line(done: usize, total: usize, cell: &CellSummary) -> String {
    format!(
        "[cell {done}/{total}] {}/{}/{}: eff {:.2}%  dil {:.2}  ({} runs)",
        cell.platform,
        cell.workload,
        cell.policy,
        cell.sys_efficiency.mean * 100.0,
        if cell.dilation.mean.is_finite() {
            cell.dilation.mean
        } else {
            f64::INFINITY
        },
        cell.runs,
    )
}

/// `iosched campaign`: run a declarative cartesian sweep
/// (`platforms × workloads × policies × seeds`) from a
/// [`CampaignSpec`] file through the streaming campaign runner and
/// render the per-cell aggregates.
pub fn cmd_campaign(spec: &CampaignSpec) -> Result<String, String> {
    cmd_campaign_result(spec).map(|(_, out)| out)
}

/// [`cmd_campaign`], also returning the structured [`CampaignResult`]
/// (the `--json` export — full f64 precision, the artifact sharded and
/// single-process runs are diffed on). Per-cell rows stream to stderr
/// the moment each cell's last seed block folds in, so long sweeps show
/// progress instead of buffering the whole result silently.
pub fn cmd_campaign_result(spec: &CampaignSpec) -> Result<(CampaignResult, String), String> {
    spec.validate()?;
    let runner = match spec.threads {
        Some(n) => ScenarioRunner::with_threads(n),
        None => ScenarioRunner::new(),
    };
    let total_cells = spec.cell_count();
    let mut done = 0usize;
    let result = run_campaign_observed(spec, &runner, |cell| {
        done += 1;
        progress_line(&cell_progress_line(done, total_cells, cell));
    })?;
    let out = render_campaign(spec, &result, &format!("{} threads", runner.threads()));
    Ok((result, out))
}

/// Emit one progress row, explicitly flushed. `eprintln!` happens to be
/// unbuffered on today's std, but progress visibility under redirection
/// (campaign logs tailed from a file, CI pipes) is a contract here, not
/// an accident of the standard library's buffering policy.
fn progress_line(line: &str) {
    use std::io::Write as _;
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}").and_then(|()| err.flush());
}

/// Render a campaign result as the standard header + aligned tables.
/// `context` fills the trailing parenthetical of the header line
/// (`"8 threads"`, `"4 shards"`, `"merged from 4 partial file(s)"`).
fn render_campaign(spec: &CampaignSpec, result: &CampaignResult, context: &str) -> String {
    let mut out = format!(
        "campaign '{}': {} platform(s) x {} workload(s) x {} policies x {} seed(s) \
         = {} runs in {} cells ({context})\n\n",
        spec.name,
        spec.platforms.len(),
        spec.workloads.len(),
        spec.policies.len(),
        spec.runs_per_cell(),
        result.total_runs,
        result.cells.len(),
    );
    let streamed = spec
        .workloads
        .iter()
        .any(iosched_workload::WorkloadSpec::is_open);
    let mut table = Table::new([
        "platform", "workload", "policy", "runs", "SysEff%", "±std", "Dilation", "makespan",
        "upper%",
    ]);
    for cell in &result.cells {
        table.row([
            cell.platform.clone(),
            cell.workload.clone(),
            cell.policy.clone(),
            cell.runs.to_string(),
            format!("{:.2}", cell.sys_efficiency.mean * 100.0),
            format!("{:.2}", cell.sys_efficiency.std * 100.0),
            if cell.dilation.mean.is_finite() {
                format!("{:.2}", cell.dilation.mean)
            } else {
                "inf".into()
            },
            format!("{:.0}s", cell.makespan_secs.mean),
            format!("{:.2}", cell.upper_limit.mean * 100.0),
        ]);
    }
    out.push_str(&table.render());
    // Saturation view for open-system sweeps: the steady-state queue
    // and stretch per cell (the per-λ curves), plus each policy's
    // dilation pooled across the whole workload axis (cell summaries
    // merged via `Summary::merge`).
    if streamed {
        let mut steady = Table::new(["workload", "policy", "queue", "stretch", "util"]);
        for cell in &result.cells {
            let fmt = |s: &Option<iosched_model::stats::Summary>| {
                s.as_ref().map_or("-".into(), |s| format!("{:.2}", s.mean))
            };
            steady.row([
                cell.workload.clone(),
                cell.policy.clone(),
                fmt(&cell.queue),
                fmt(&cell.stretch),
                fmt(&cell.utilization),
            ]);
        }
        out.push_str("\nsteady state (warmup-trimmed means per cell):\n");
        out.push_str(&steady.render());
        out.push_str("\npooled dilation across the workload axis:\n");
        for policy in &spec.policies {
            if let Some(pooled) = result.pooled_dilation(&policy.serde_name()) {
                let _ = writeln!(
                    out,
                    "  {:<24} mean {:.2}  p95 {:.2}  max {:.2}  ({} runs)",
                    policy.serde_name(),
                    pooled.mean,
                    pooled.p95,
                    pooled.max,
                    pooled.n,
                );
            }
        }
    }
    out
}

/// `iosched shard`: run one shard of a campaign, appending finished
/// seed blocks to the partial directory (resuming past work there) and
/// streaming per-block progress to stderr. This is the worker half of
/// `iosched campaign --shards N`, but it is a first-class command: the
/// shards of one campaign can run on different machines, as long as
/// their partial files land in one directory before `iosched merge`.
pub fn cmd_shard(
    spec: &CampaignSpec,
    index: usize,
    of: usize,
    dir: &std::path::Path,
) -> Result<String, String> {
    let runner = match spec.threads {
        Some(n) => ScenarioRunner::with_threads(n),
        None => ScenarioRunner::new(),
    };
    let report = shard::run_shard(spec, index, of, dir, &runner, |block, done, todo| {
        progress_line(&format!(
            "[shard {index}/{of}] block {block} done ({done}/{todo})"
        ));
    })?;
    Ok(format!(
        "shard {}/{} pass {}: {} block(s) assigned, {} skipped (already finished), \
         {} computed -> {}\n",
        report.index,
        report.of,
        report.pass,
        report.assigned,
        report.skipped,
        report.computed,
        report.path.display(),
    ))
}

/// `iosched campaign --shards N`: the multi-process driver. Launches
/// `shards` copies of this executable (`iosched shard <spec> --index i
/// --of N --out DIR`) as independent OS processes — no IPC beyond the
/// partial files — waits for them, then merges the partials into a
/// result bit-identical to the single-process run. Because every shard
/// resumes from the directory, re-running the same command after a
/// crash (or SIGKILL) recomputes only unfinished blocks.
pub fn cmd_campaign_sharded(
    exe: &std::path::Path,
    spec_path: &str,
    spec: &CampaignSpec,
    shards: usize,
    dir: &std::path::Path,
) -> Result<(CampaignResult, String), String> {
    if shards == 0 {
        return Err("shard count must be at least 1".into());
    }
    spec.validate()?;
    let mut children = Vec::with_capacity(shards);
    for index in 0..shards {
        let mut cmd = std::process::Command::new(exe);
        cmd.arg("shard")
            .arg(spec_path)
            .arg("--index")
            .arg(index.to_string())
            .arg("--of")
            .arg(shards.to_string())
            .arg("--out")
            .arg(dir);
        if let Some(threads) = spec.threads {
            cmd.arg("--threads").arg(threads.to_string());
        }
        // Children inherit stderr (their per-block progress streams
        // through); their stdout summaries would garble ours.
        cmd.stdout(std::process::Stdio::null());
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning shard {index}: {e}"))?;
        children.push((index, child));
    }
    let mut failures = Vec::new();
    for (index, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failures.push(format!("shard {index} exited with {status}")),
            Err(e) => failures.push(format!("waiting for shard {index}: {e}")),
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} (see stderr above; rerun the same command to resume from {})",
            failures.join("; "),
            dir.display()
        ));
    }
    let merged = shard::merge_dir(dir)?;
    if shard::spec_hash(spec) != shard::spec_hash(&merged.spec) {
        return Err(format!(
            "{}: merged partials belong to a different campaign",
            dir.display()
        ));
    }
    let out = render_campaign(spec, &merged.result, &format!("{shards} shards"));
    Ok((merged.result, out))
}

/// `iosched merge`: reduce a directory of shard partials into the
/// campaign result (bit-identical to the single-process run — see
/// `iosched_bench::shard`) and render it with per-shard provenance.
pub fn cmd_merge(dir: &std::path::Path) -> Result<(CampaignResult, String), String> {
    let merged = shard::merge_dir(dir)?;
    let mut out = render_campaign(
        &merged.spec,
        &merged.result,
        &format!("merged from {} partial file(s)", merged.files),
    );
    if !merged.footers.is_empty() {
        out.push_str("\nshard provenance (clean-exit footers):\n");
        for f in &merged.footers {
            let _ = writeln!(
                out,
                "  shard {} pass {}: {} block(s), wall {:.1}s{}{}",
                f.index,
                f.pass,
                f.blocks_done,
                f.wall_ms as f64 / 1000.0,
                f.cpu_ms.map_or_else(String::new, |ms| format!(
                    ", cpu {:.1}s",
                    ms as f64 / 1000.0
                )),
                f.peak_rss_kib.map_or_else(String::new, |kib| format!(
                    ", peak rss {:.1} MiB",
                    kib as f64 / 1024.0
                )),
            );
        }
    }
    if let Some(bt) = &merged.block_time_ns {
        let ms = |ns: u64| ns as f64 / 1e6;
        let _ = writeln!(
            out,
            "  block time over {} block(s): mean {:.1} ms, p50 {:.1} ms, \
             p99 {:.1} ms, max {:.1} ms",
            bt.count,
            bt.mean() / 1e6,
            ms(bt.quantile(0.5)),
            ms(bt.quantile(0.99)),
            ms(bt.max),
        );
    }
    Ok((merged.result, out))
}

/// `iosched trace`: run a simulation with a bounded decision trace
/// attached and export it as JSONL — one structured scheduling decision
/// (admission, grant set, capacity-screen fallback, retirement, policy
/// wakeup, journal flush) per line, oldest first.
///
/// Two sources share the machinery: a scenario file plus a policy name
/// (the `simulate` shape), or a serve journal (the arrivals of a live —
/// possibly drained-and-resumed — daemon session, replayed through
/// `simulate_stream` exactly like `iosched serve --replay`). The trace
/// is observation-only: the outcome with it attached is bit-identical
/// to one without, a contract pinned by the workspace obs-identity
/// tests.
///
/// Returns `(jsonl, summary)`. Every line is re-parsed and re-serialized
/// before being returned — the export is self-verifying.
pub fn cmd_trace_scenario(
    scenario: &ScenarioFile,
    policy_name: &str,
    capacity: usize,
) -> Result<(String, String), String> {
    scenario.validate()?;
    let mut policy = policy_for_scenario(policy_name, scenario)?;
    let config = SimConfig::default();
    let mut sim =
        iosched_sim::Simulation::new(&scenario.platform, &scenario.apps, policy.as_mut(), &config)
            .map_err(|e| e.to_string())?;
    sim.enable_decision_trace(capacity);
    let outcome = sim.run_to_completion().map_err(|e| e.to_string())?;
    render_trace(
        &outcome,
        &format!(
            "{} applications on {} under {policy_name}",
            scenario.apps.len(),
            scenario.platform.name
        ),
    )
}

/// `iosched trace --journal`: trace the replay of a serve journal (see
/// [`cmd_trace_scenario`] for the export contract).
pub fn cmd_trace_journal(
    journal: &std::path::Path,
    capacity: usize,
) -> Result<(String, String), String> {
    let contents = iosched_serve::Journal::load(journal)?;
    contents.spec.validate()?;
    if contents.arrivals.is_empty() {
        return Err(format!(
            "journal {} holds no arrivals; nothing to trace",
            journal.display()
        ));
    }
    let arrivals = contents.arrivals.len();
    let mut policy = contents.spec.policy.build_online(&contents.spec.platform)?;
    let mut sim = iosched_sim::Simulation::from_stream(
        &contents.spec.platform,
        contents.arrivals.into_iter(),
        policy.as_mut(),
        &contents.spec.config,
    )
    .map_err(|e| e.to_string())?;
    sim.enable_decision_trace(capacity);
    let outcome = sim.run_to_completion().map_err(|e| e.to_string())?;
    render_trace(
        &outcome,
        &format!("journal {} ({arrivals} arrivals)", journal.display()),
    )
}

/// Export a finished run's decision trace, re-parsing every emitted
/// line (parse + re-serialize must reproduce the line byte-for-byte —
/// the lossless float encoding makes that a meaningful check).
fn render_trace(outcome: &iosched_sim::SimOutcome, what: &str) -> Result<(String, String), String> {
    let trace = outcome
        .decision_trace
        .as_ref()
        .ok_or("engine returned no decision trace")?;
    let jsonl = trace.to_jsonl();
    for line in jsonl.lines() {
        let record = iosched_sim::DecisionTrace::parse_line(line)?;
        let back = serde_json::to_string(&record).map_err(|e| e.to_string())?;
        if back != line {
            return Err(format!(
                "trace line failed the roundtrip check:\n  emitted: {line}\n  reparsed: {back}"
            ));
        }
    }
    let summary = format!(
        "traced {what}: {} engine events, kept {} of {} trace records ({} dropped by the ring)\n",
        outcome.events,
        trace.len(),
        trace.total(),
        trace.dropped(),
    );
    Ok((jsonl, summary))
}

/// The usage string printed on `--help` or argument errors.
pub const USAGE: &str = "\
iosched — global HPC I/O scheduling (IPDPS'15 reproduction)

USAGE:
  iosched platforms
  iosched policies
  iosched generate --kind <congested|mix-a|mix-b|mix-c>
                   --platform <intrepid|mira|vesta> [--seed N] [-o FILE]
  iosched simulate <scenario.json> --policy <name|all> [--burst-buffer]
  iosched telemetry <scenario.json> --policy <name>
                    [--external-load PERIOD,BUSY,FRACTION] [-o FILE]
  iosched stream <stream-scenario.json> [-o FILE]
  iosched periodic <scenario.json> [--objective <dilation|syseff>] [--epsilon E]
  iosched campaign <campaign.json> [--threads N] [--json FILE]
                   [--shards N [--out DIR]]
  iosched shard <campaign.json> --index I --of N [--out DIR] [--threads N]
  iosched merge <partials-dir> [-o FILE]
  iosched serve --platform <name> --policy <name> --journal FILE
                [--socket PATH] [--accelerate N]
  iosched serve --replay --journal FILE
  iosched serve --connect SOCKET
  iosched trace <scenario.json> --policy <name> [--capacity N] [-o FILE]
  iosched trace --journal FILE [--capacity N] [-o FILE]
  iosched repro [<target>|all] [--runs N]

REPRODUCING THE PAPER:
  `iosched repro` lists the targets: fig01-fig16, table1, table2 and
  the ablations, each with its default count. `iosched repro fig06`
  prints Fig. 6 as the paper reports it; --runs N replaces a sized
  target's default count (applications, jobs, mixes or congested
  cases). `iosched repro all` renders every target at its default.

CAMPAIGN FILES (see README 'Campaign files' for the full format):
  {\"name\": \"quick\", \"platforms\": [\"intrepid\"],
   \"workloads\": [{\"Congestion\": {\"seed\": 0}}],
   \"policies\": [\"maxsyseff\", \"fairshare\", \"periodic:cong\"],
   \"seeds\": [0, 1, 2], \"config\": null, \"threads\": null}
  The platforms x workloads x policies x seeds product expands lazily,
  runs in parallel, and streams into deterministic per-cell aggregates.
  examples/campaign_fig6.json reproduces the paper's Fig. 6 sweep;
  examples/campaign_fig4.json replays the Fig. 4 periodic schedule.

SHARDED CAMPAIGNS (see README 'Sharded campaigns'):
  --shards N launches N OS processes, each appending finished seed
  blocks to DIR (default <name>.partials) as mergeable JSONL partials,
  then merges them — bit-identical to the single-process run, and
  resumable: rerunning after a crash/SIGKILL recomputes only the
  unfinished blocks. `iosched shard` runs one worker by hand (the
  shards of one campaign may run on different machines); `iosched
  merge` reduces any partial directory. --json exports the result at
  full f64 precision for byte-exact diffs.

POLICIES (`iosched policies` lists the whole roster):
  online:  roundrobin, mindilation, maxsyseff, minmax-<gamma>, fairshare,
           fcfs, and priority-<name> variants (e.g. priority-maxsyseff);
  offline: periodic:<cong|throu>[:<dilation|syseff>][:eps=E][:tmax=F] —
           a §3.2 periodic schedule searched per scenario and replayed
           as a timetable;
  control: control:pi[:kp=K][:ki=I][:set=S][:win=W] — adaptive PI
           feedback loop on the engine's congestion telemetry
           (examples/campaign_control.json sweeps it under storms).

TELEMETRY:
  `iosched telemetry` runs one policy with the per-event congestion
  series enabled and prints/exports the per-run record (utilization and
  contention means + p95/p99 tails, peak backlog, peak pending).
  --external-load 240,90,0.7 squeezes 70% of the PFS away for the first
  90s of every 240s cycle (the storm used by campaign_control.json).

SCHEDULER AS A SERVICE (see README 'Scheduler as a service'):
  `iosched serve` runs the engine as a long-lived daemon speaking a
  line-delimited JSON protocol on stdin and/or a Unix socket: submit,
  status, telemetry [follow], checkpoint, drain, shutdown. Every
  accepted arrival is journaled (flushed, write-ahead) before it is
  acknowledged; `drain` checkpoints and exits, and re-running with the
  same --journal resumes bit-identically to a run that was never
  interrupted. --accelerate N maps N virtual seconds onto each wall
  second (0 = frozen clock: fully deterministic, engine runs at
  shutdown). `--replay` re-simulates a journal and prints the same
  {\"final\":…} line the live session printed; `--connect` pipes stdin
  to a daemon's socket (client mode).

DECISION TRACES (see README 'Observability'):
  `iosched trace` re-runs a scenario (or replays a serve journal) with
  the engine's bounded decision trace attached and streams it as JSONL
  on stdout (or to -o FILE): one structured record per scheduling
  decision — admission, grant set, capacity-screen fallback,
  retirement, policy wakeup, journal flush — each tagged with a global
  sequence number. The ring keeps the last N records (--capacity,
  default 65536; older records are counted, then dropped). The trace
  is observation-only: outcomes are bit-identical with it on or off.

OPEN-SYSTEM STREAMS:
  `iosched stream` runs one scenario-spec file whose workload is a
  dynamic arrival stream (see README 'Open-system streams'):
  {\"label\": \"demo\", \"platform\": \"intrepid\",
   \"workload\": {\"Stream\": {\"arrivals\": {\"Poisson\": {\"rate\": 0.001}},
                            \"template\": {\"Congestion\": {\"seed\": 0}},
                            \"stop\": {\"Apps\": 500}, \"seed\": 0}},
   \"policy\": \"fairshare\", \"config\": {\"warmup\": 2000.0}}
  Online/control policies drive the stream lazily (peak memory tracks
  concurrency, not stream length); the warmup-trimmed steady-state
  record (stretch, queue, utilization, throughput) prints and exports
  as JSON with -o. examples/campaign_stream.json sweeps arrival rates
  x policies into per-cell saturation curves via `iosched campaign`.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ScenarioFile {
        cmd_generate(GenerateKind::Congested, "vesta", 3).unwrap()
    }

    #[test]
    fn platform_lookup() {
        assert!(platform_by_name("intrepid").is_ok());
        assert!(platform_by_name("mira").is_ok());
        assert!(platform_by_name("vesta").is_ok());
        assert!(platform_by_name("summit").is_err());
    }

    #[test]
    fn policy_lookup_covers_the_roster() {
        let s = scenario();
        for name in [
            "roundrobin",
            "mindilation",
            "maxsyseff",
            "minmax-0.5",
            "priority-minmax-0.25",
            "priority-maxsyseff",
            "fairshare",
            "fcfs",
        ] {
            let p = policy_for_scenario(name, &s).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!p.name().is_empty());
        }
        // The offline branch builds a schedule for the scenario, so give
        // it one that both insertion heuristics can pack fully.
        let platform = platform_by_name("vesta").unwrap();
        let mild = ScenarioFile {
            apps: vec![
                iosched_model::AppSpec::periodic(
                    0,
                    iosched_model::Time::ZERO,
                    256,
                    iosched_model::Time::secs(60.0),
                    iosched_model::Bytes::gib(100.0),
                    3,
                ),
                iosched_model::AppSpec::periodic(
                    1,
                    iosched_model::Time::ZERO,
                    512,
                    iosched_model::Time::secs(45.0),
                    iosched_model::Bytes::gib(150.0),
                    3,
                ),
            ],
            platform,
        };
        for name in ["periodic:cong", "periodic:throu"] {
            let p = policy_for_scenario(name, &mild).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.name(), name);
        }
        assert!(policy_for_scenario("lottery", &s).is_err());
        assert!(policy_for_scenario("minmax-1.5", &s).is_err());
        assert!(policy_for_scenario("priority-fairshare", &s).is_err());
        // A starving schedule surfaces as a labeled error, not a hang:
        // two pure-I/O hogs each need the whole PFS for the entire
        // single candidate period (tmax = 1), so the second one cannot
        // be placed at any bandwidth-ladder rung.
        let starving = ScenarioFile {
            platform: iosched_model::Platform::new(
                "t",
                1_000,
                iosched_model::Bw::gib_per_sec(0.01),
                iosched_model::Bw::gib_per_sec(0.5),
            ),
            apps: vec![
                iosched_model::AppSpec::periodic(
                    0,
                    iosched_model::Time::ZERO,
                    50,
                    iosched_model::Time::secs(1_000.0),
                    iosched_model::Bytes::gib(0.1),
                    1,
                ),
                iosched_model::AppSpec::periodic(
                    1,
                    iosched_model::Time::ZERO,
                    50,
                    iosched_model::Time::secs(0.0),
                    iosched_model::Bytes::gib(500.0),
                    1,
                ),
                iosched_model::AppSpec::periodic(
                    2,
                    iosched_model::Time::ZERO,
                    50,
                    iosched_model::Time::secs(0.0),
                    iosched_model::Bytes::gib(500.0),
                    1,
                ),
            ],
        };
        let Err(err) = policy_for_scenario("periodic:throu:tmax=1", &starving) else {
            panic!("the second hog cannot be scheduled");
        };
        assert!(err.contains("periodic:throu"), "{err}");
        assert!(err.contains("starves"), "{err}");
    }

    #[test]
    fn policies_listing_spans_online_offline_and_control() {
        let out = cmd_policies();
        for needle in [
            "roundrobin",
            "priority-minmax-0.50",
            "fairshare",
            "fcfs",
            "periodic:cong",
            "periodic:throu",
            "control:pi",
            "feedback loop",
            "offline",
            "online",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn telemetry_command_reports_and_exports_the_congestion_record() {
        let s = scenario();
        let storm = iosched_sim::ExternalLoad {
            period: iosched_model::Time::secs(240.0),
            busy: iosched_model::Time::secs(90.0),
            fraction: 0.7,
        };
        let (report, json) = cmd_telemetry(&s, "control:pi", Some(storm)).unwrap();
        for needle in [
            "utilization",
            "contention",
            "p95",
            "peak backlog",
            "control:pi",
        ] {
            assert!(report.contains(needle), "missing {needle} in:\n{report}");
        }
        // The JSON export is a deserializable TelemetrySummary.
        let parsed: iosched_sim::TelemetrySummary = serde_json::from_str(&json).unwrap();
        assert!(parsed.samples > 0);
        assert!(parsed.mean_contention > 0.0, "congested moments contend");
        // Unknown policies and invalid scenarios error cleanly.
        assert!(cmd_telemetry(&s, "lottery", None).is_err());
    }

    fn stream_spec_json(policy: &str) -> String {
        format!(
            r#"{{
                "label": "unit-stream",
                "platform": "intrepid",
                "workload": {{"Stream": {{
                    "arrivals": {{"Poisson": {{"rate": 0.001}}}},
                    "template": {{"Congestion": {{"seed": 0}}}},
                    "stop": {{"Apps": 80}},
                    "seed": 1
                }}}},
                "policy": "{policy}",
                "config": {{"warmup": 2000.0, "telemetry": true}}
            }}"#
        )
    }

    #[test]
    fn stream_command_reports_and_exports_the_windowed_record() {
        let spec: iosched_bench::campaign::ScenarioSpec =
            serde_json::from_str(&stream_spec_json("fairshare")).unwrap();
        let (report, json) = cmd_stream(&spec).unwrap();
        for needle in [
            "stream(poisson@0.001/s->congestionx80)",
            "fairshare",
            "80 admitted",
            "steady state",
            "stretch",
            "I/O queue",
            "throughput",
            "telemetry",
        ] {
            assert!(report.contains(needle), "missing {needle} in:\n{report}");
        }
        // The JSON export is a deserializable StreamRecord.
        let record: StreamRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(record.policy, "fairshare");
        assert_eq!(record.steady.admitted, 80);
        assert!(record.steady.mean_stretch >= 1.0);
        assert!(record.telemetry.is_some());
    }

    #[test]
    fn stream_command_materializes_for_offline_policies() {
        // periodic:* needs the whole roster to plan; the stretched-tmax
        // form packs the 80-app stream roster.
        let spec: iosched_bench::campaign::ScenarioSpec =
            serde_json::from_str(&stream_spec_json("periodic:cong:tmax=32")).unwrap();
        let (report, _) = cmd_stream(&spec).unwrap();
        assert!(report.contains("periodic:cong:tmax=32"), "{report}");
        assert!(report.contains("steady state"));
    }

    #[test]
    fn stream_command_rejects_unwindowed_closed_scenarios() {
        let closed = r#"{
            "label": "closed",
            "platform": "vesta",
            "workload": {"Congestion": {"seed": 0}},
            "policy": "fairshare",
            "config": null
        }"#;
        let spec: iosched_bench::campaign::ScenarioSpec = serde_json::from_str(closed).unwrap();
        let err = cmd_stream(&spec).unwrap_err();
        assert!(err.contains("iosched simulate"), "{err}");
        // …but a windowed closed scenario is fine (horizon semantics).
        let windowed = closed.replace("null", r#"{"warmup": 100.0}"#);
        let spec: iosched_bench::campaign::ScenarioSpec = serde_json::from_str(&windowed).unwrap();
        let (report, _) = cmd_stream(&spec).unwrap();
        assert!(report.contains("steady state"), "{report}");
    }

    #[test]
    fn campaign_prints_saturation_view_for_stream_sweeps() {
        let spec = CampaignSpec {
            workloads: vec![iosched_bench::experiments::load_sweep::stream_workload(
                0.0008,
            )],
            policies: vec![
                PolicySpec::parse("fairshare").unwrap(),
                PolicySpec::parse("mindilation").unwrap(),
            ],
            seeds: vec![0],
            threads: Some(2),
            ..iosched_bench::experiments::load_sweep::campaign(1)
        };
        let out = cmd_campaign(&spec).unwrap();
        for needle in ["steady state", "queue", "pooled dilation", "stream("] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn generate_kinds_parse() {
        assert_eq!(
            GenerateKind::parse("congested").unwrap(),
            GenerateKind::Congested
        );
        assert_eq!(GenerateKind::parse("mix-b").unwrap(), GenerateKind::MixB);
        assert!(GenerateKind::parse("chaos").is_err());
    }

    #[test]
    fn scenario_json_roundtrip() {
        let s = scenario();
        let json = s.to_json().unwrap();
        let back = ScenarioFile::from_json(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn from_json_rejects_invalid_scenarios() {
        let mut s = scenario();
        // Blow the processor budget.
        let app = iosched_model::AppSpec::periodic(
            s.apps.len(),
            iosched_model::Time::ZERO,
            s.platform.procs, // the whole machine again
            iosched_model::Time::secs(1.0),
            iosched_model::Bytes::gib(1.0),
            1,
        );
        s.apps.push(app);
        let json = serde_json::to_string(&s).unwrap();
        assert!(ScenarioFile::from_json(&json).is_err());
    }

    #[test]
    fn simulate_single_policy_renders_a_report() {
        let s = scenario();
        let out = cmd_simulate(&s, "maxsyseff", false).unwrap();
        assert!(out.contains("maxsyseff"));
        assert!(out.contains("upper limit"));
    }

    #[test]
    fn simulate_all_runs_the_full_roster() {
        let s = scenario();
        let out = cmd_simulate(&s, "all", false).unwrap();
        for name in ["roundrobin", "priority-maxsyseff", "fairshare", "fcfs"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn simulate_runs_an_offline_periodic_policy() {
        // Congested-moment scenarios are periodic, so the offline branch
        // of the roster works through plain `iosched simulate` too.
        let s = scenario();
        let out = cmd_simulate(&s, "periodic:cong", false).unwrap();
        assert!(out.contains("periodic:cong"), "{out}");
        assert!(out.contains("upper limit"));
    }

    #[test]
    fn simulate_with_burst_buffer_requires_spec() {
        let mut s = scenario();
        s.platform.burst_buffer = None;
        assert!(cmd_simulate(&s, "fairshare", true).is_err());
        s.platform = s.platform.with_default_burst_buffer();
        assert!(cmd_simulate(&s, "fairshare", true).is_ok());
    }

    #[test]
    fn periodic_command_reports_a_valid_schedule() {
        let s = scenario();
        let out = cmd_periodic(&s, "dilation", 0.1).unwrap();
        assert!(out.contains("best period"));
        assert!(out.contains("n_per"));
        assert!(cmd_periodic(&s, "bogus", 0.1).is_err());
        assert!(cmd_periodic(&s, "dilation", -1.0).is_err());
    }

    #[test]
    fn platforms_listing_mentions_all_three() {
        let out = cmd_platforms();
        assert!(out.contains("intrepid") && out.contains("mira") && out.contains("vesta"));
    }

    fn campaign_spec() -> CampaignSpec {
        CampaignSpec::from_json(
            r#"{
                "name": "cli-test",
                "platforms": ["vesta"],
                "workloads": [{"Congestion": {"seed": 0}}],
                "policies": ["maxsyseff", "mindilation", "fairshare"],
                "seeds": [1, 2, 3],
                "config": null,
                "threads": 2
            }"#,
        )
        .expect("test campaign parses")
    }

    #[test]
    fn campaign_spec_json_roundtrip() {
        let spec = campaign_spec();
        let json = spec.to_json().unwrap();
        assert_eq!(CampaignSpec::from_json(&json).unwrap(), spec);
    }

    #[test]
    fn campaign_reports_every_cell() {
        let out = cmd_campaign(&campaign_spec()).unwrap();
        for needle in [
            "maxsyseff",
            "mindilation",
            "fairshare",
            "upper%",
            "congestion",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        assert!(out.contains("3 policies x 3 seed(s) = 9 runs in 3 cells"));
    }

    #[test]
    fn campaign_aggregates_match_sequential_simulation() {
        let spec = campaign_spec();
        let out = cmd_campaign(&spec).unwrap();
        // Recompute maxsyseff's mean SysEfficiency sequentially: the
        // congestion workload at campaign seeds 1..3 on vesta.
        let platform = platform_by_name("vesta").unwrap();
        let mut effs = Vec::new();
        for seed in [1, 2, 3] {
            let apps = congested_moment(&platform, seed);
            let result = simulate(
                &platform,
                &apps,
                PolicySpec::parse("maxsyseff")
                    .unwrap()
                    .build(&platform, &apps)
                    .unwrap()
                    .as_mut(),
                &SimConfig::default(),
            )
            .unwrap();
            effs.push(result.report.sys_efficiency);
        }
        let expected = format!("{:.2}", iosched_model::stats::mean(&effs) * 100.0);
        assert!(
            out.contains(&expected),
            "expected mean '{expected}' in:\n{out}"
        );
    }

    #[test]
    fn campaign_rejects_bad_specs() {
        let mut spec = campaign_spec();
        spec.policies.clear();
        assert!(cmd_campaign(&spec).is_err());
        let mut spec = campaign_spec();
        spec.threads = Some(0);
        assert!(cmd_campaign(&spec).is_err(), "zero threads must not panic");
        // Bad policy names and platforms are rejected at parse time.
        assert!(CampaignSpec::from_json(
            r#"{"name": "x", "platforms": ["vesta"],
                "workloads": [{"Congestion": {"seed": 0}}],
                "policies": ["lottery"], "seeds": [], "config": null, "threads": null}"#
        )
        .is_err());
        assert!(CampaignSpec::from_json(
            r#"{"name": "x", "platforms": ["summit"],
                "workloads": [{"Congestion": {"seed": 0}}],
                "policies": ["fcfs"], "seeds": [], "config": null, "threads": null}"#
        )
        .is_err());
        // Empty mixes are rejected by workload validation.
        assert!(CampaignSpec::from_json(
            r#"{"name": "x", "platforms": ["vesta"],
                "workloads": [{"Mix": {"config": {
                    "small": 0, "large": 0, "very_large": 0, "io_ratio": 0.2,
                    "work_range": [100.0, 400.0], "instances": [8, 12],
                    "release_jitter": 1.0}, "seed": 0}}],
                "policies": ["fcfs"], "seeds": [], "config": null, "threads": null}"#
        )
        .is_err());
    }

    #[test]
    fn campaign_runs_a_fig6_shaped_mini_sweep() {
        // The examples/campaign_fig6.json shape, shrunk for test speed:
        // mixes x policies x seeds with every policy spelled as a string.
        let spec = CampaignSpec {
            seeds: vec![0, 1],
            ..iosched_bench::experiments::fig06::campaign(2)
        };
        let out = cmd_campaign(&spec).unwrap();
        assert!(
            out.contains("24 cells") || out.contains("in 24 cells"),
            "{out}"
        );
        for needle in ["roundrobin", "priority-minmax-0.50", "mix("] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }
}

//! # iosched-cli
//!
//! Command-line front end for the workspace: generate scenario specs,
//! run any scheduler over one in the fluid simulator, and build periodic
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
//! iosched run scenario.json --policy priority-maxsyseff
//! iosched run scenario.json --policy periodic:cong --trace decisions.jsonl
//! iosched run scenario.json --policy all -o runs.json
//! iosched run --journal serve-journal.jsonl
//! iosched periodic scenario.json --objective dilation --epsilon 0.05
//! iosched campaign campaign.json [--threads N]
//! iosched repro fig06 [--runs N]
//! ```
//!
//! Scenario files are [`ScenarioSpec`] JSON — platform, workload, policy
//! and engine configuration — so they can be authored by hand or produced
//! by any external tool; `generate` writes one whose workload is the
//! explicit application list, and `run` drives it through
//! [`iosched_bench::run_policy`], the run path campaigns share. Campaign
//! files describe a whole cartesian sweep — `platforms × workloads ×
//! policies × seeds` — that expands lazily and streams through the
//! parallel [`iosched_bench::ScenarioRunner`] into per-cell aggregates
//! (see the README's "Campaign files" section):
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
    platform_preset, run_campaign_observed, run_policy, Arrivals, CampaignResult, CampaignSpec,
    CellSummary, PlatformSpec, ScenarioSpec,
};
use iosched_bench::report::Table;
use iosched_bench::runner::ScenarioRunner;
use iosched_bench::shard;
use iosched_bench::{PeriodicFactory, PolicySpec};
use iosched_core::periodic::{InsertionHeuristic, PeriodicAppSpec};
use iosched_model::{app::validate_scenario, Platform};
use iosched_sim::{SimConfig, SimOutcome, SteadySummary, TelemetrySummary};
use iosched_workload::congestion::congested_moment;
use iosched_workload::{MixConfig, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;

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

/// `iosched generate`: build a scenario spec — the preset platform, the
/// generated applications as an explicit workload, and the native
/// `fairshare` baseline as its policy (`iosched run --policy` overrides
/// it).
pub fn cmd_generate(kind: GenerateKind, platform: &str, seed: u64) -> Result<ScenarioSpec, String> {
    let built = platform_preset(platform)?;
    let apps = match kind {
        GenerateKind::Congested => congested_moment(&built, seed),
        GenerateKind::MixA => MixConfig::fig6a().generate(&built, seed),
        GenerateKind::MixB => MixConfig::fig6b().generate(&built, seed),
        GenerateKind::MixC => MixConfig::fig6c().generate(&built, seed),
    };
    validate_scenario(&built, &apps).map_err(|e| e.to_string())?;
    Ok(ScenarioSpec {
        label: format!("{kind:?} on {platform}, seed {seed}"),
        platform: PlatformSpec::Preset(platform.to_string()),
        workload: WorkloadSpec::Explicit(apps),
        policy: PolicySpec::FairShare,
        config: None,
    })
}

/// Parse a scenario file. Any parse failure names the expected shape, so
/// a file in another format says what to write instead.
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, String> {
    serde_json::from_str(text).map_err(|e| {
        format!(
            "{e}; a scenario file is a scenario spec {{\"label\": …, \"platform\": …, \
             \"workload\": …, \"policy\": …, \"config\": …}} (`iosched generate` writes one)"
        )
    })
}

/// Decision-trace ring size of `iosched run --trace`: the last this many
/// records are kept (older ones are counted, then dropped).
const TRACE_CAPACITY: usize = 65_536;

/// JSON export of one `iosched run` policy run (`-o` writes an array of
/// these, one per policy).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload label (seed-free).
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Scheduling events processed.
    pub events: usize,
    /// Final simulated second.
    pub end_secs: f64,
    /// The warmup-trimmed steady-state window (present iff the run was
    /// stream-driven or the config set a `warmup`/`horizon` window).
    pub steady: Option<SteadySummary>,
    /// Per-run congestion record (present iff the config set
    /// `telemetry`).
    pub telemetry: Option<TelemetrySummary>,
}

/// What `iosched run` produced: the rendered report, one record per
/// policy run, and the decision trace when one was attached.
#[derive(Debug)]
pub struct RunOutput {
    /// The policy table, then each run's telemetry and steady-state
    /// blocks.
    pub report: String,
    /// One record per policy run, in table order.
    pub records: Vec<RunRecord>,
    /// `(jsonl, summary)` of the decision trace: its last 65,536
    /// records, one JSON object per line.
    pub trace: Option<(String, String)>,
}

/// `iosched run`: run the scenario under its own policy, under `policy`
/// (a registry name), or under the whole online roster (`"all"`), and
/// render the report. `trace` attaches the engine's decision trace to
/// the single run it allows.
pub fn cmd_run(
    spec: &ScenarioSpec,
    policy: Option<&str>,
    trace: bool,
) -> Result<RunOutput, String> {
    let policies = match policy {
        Some("all") => PolicySpec::full_roster(),
        Some(name) => vec![PolicySpec::parse(name)?],
        None => vec![spec.policy],
    };
    if trace && policies.len() > 1 {
        return Err("--trace records a single run; pick one --policy, not all".into());
    }
    let platform = spec.platform.build()?;
    let config = spec.config.clone().unwrap_or_default();
    // A closed roster is materialized once for every policy; an open
    // stream is pulled lazily per run, so peak memory tracks concurrency.
    let apps;
    let (arrivals, what) = if spec.workload.is_open() {
        (Arrivals::Lazy(&spec.workload), spec.workload.label())
    } else {
        apps = spec.workload.materialize(&platform)?;
        (
            Arrivals::Closed(&apps),
            format!("{} applications", apps.len()),
        )
    };
    let mut runs = Vec::with_capacity(policies.len());
    for p in policies {
        let trace = trace.then_some(TRACE_CAPACITY);
        let outcome =
            run_policy(&platform, arrivals, p, &config, trace).map_err(|e| e.to_string())?;
        runs.push((p.name(), outcome));
    }
    render_run(&what, &spec.workload.label(), &platform, &config, &runs)
}

/// `iosched run --journal`: replay a serve journal's arrivals under its
/// own policy and config (see [`iosched_serve::replay`]) and render the
/// same report as [`cmd_run`].
pub fn cmd_run_journal(journal: &Path, trace: bool) -> Result<RunOutput, String> {
    let (spec, outcome, arrivals) =
        iosched_serve::replay(journal, trace.then_some(TRACE_CAPACITY))?;
    render_run(
        &format!("{arrivals} arrivals from journal {}", journal.display()),
        &format!("journal({arrivals} arrivals)"),
        &spec.platform,
        &spec.config,
        &[(spec.policy.name(), outcome)],
    )
}

/// The one `run` report: the policy table (SysEfficiency, Dilation,
/// makespan, then the upper limit), then per run its telemetry block
/// (when the config set `telemetry`) and steady-state block (when the
/// run carries a steady summary).
fn render_run(
    what: &str,
    workload: &str,
    platform: &Platform,
    config: &SimConfig,
    runs: &[(String, SimOutcome)],
) -> Result<RunOutput, String> {
    let mut out = format!(
        "{what} on {} (B = {:.1} GiB/s{})\n\n",
        platform.name,
        platform.total_bw.as_gib_per_sec(),
        if config.use_burst_buffer {
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
    for (name, outcome) in runs {
        upper = outcome.report.upper_limit;
        let _ = writeln!(
            out,
            "{:<30} {:>13.2}% {:>10.2} {:>11.0}s",
            name,
            outcome.report.sys_efficiency * 100.0,
            outcome.report.dilation,
            // `end_time` is the makespan on completed runs and stays
            // right when the per-application detail is off.
            outcome.end_time.as_secs(),
        );
    }
    let _ = writeln!(out, "{:<30} {:>13.2}%", "upper limit", upper * 100.0);
    for (name, outcome) in runs {
        if outcome.telemetry.is_some() || outcome.steady.is_some() {
            let _ = write!(
                out,
                "\n{name}: {} events over {:.0}s simulated\n",
                outcome.events,
                outcome.end_time.as_secs(),
            );
        }
        if let Some(telemetry) = &outcome.telemetry {
            render_telemetry(&mut out, telemetry);
        }
        if let Some(steady) = &outcome.steady {
            render_steady(&mut out, steady, outcome.end_time.as_secs());
        }
    }
    let trace = match runs {
        [(name, outcome)] if outcome.decision_trace.is_some() => Some(render_trace(
            outcome,
            &format!("{what} on {} under {name}", platform.name),
        )?),
        _ => None,
    };
    let records = runs
        .iter()
        .map(|(name, outcome)| RunRecord {
            workload: workload.to_string(),
            policy: name.clone(),
            events: outcome.events,
            end_secs: outcome.end_time.as_secs(),
            steady: outcome.steady.clone(),
            telemetry: outcome.telemetry.clone(),
        })
        .collect();
    Ok(RunOutput {
        report: out,
        records,
        trace,
    })
}

/// The per-run congestion record: utilization and contention means with
/// their p95/p99 tails, peak backlog and peak pending.
fn render_telemetry(out: &mut String, telemetry: &TelemetrySummary) {
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
}

/// The warmup-trimmed steady-state window ending at `end_secs`.
fn render_steady(out: &mut String, steady: &SteadySummary, end_secs: f64) {
    let _ = writeln!(
        out,
        "applications: {} admitted, {} completed in the window, {} left in the system",
        steady.admitted, steady.completed, steady.left_in_system,
    );
    let _ = writeln!(
        out,
        "steady state over [{:.0}s, {:.0}s] ({:.0}s observed):",
        steady.warmup_secs, end_secs, steady.window_secs,
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
}

/// Export a finished run's decision trace as JSONL plus a one-line
/// summary, re-parsing every emitted line (parse + re-serialize must
/// reproduce the line byte-for-byte — the lossless float encoding makes
/// that a meaningful check).
fn render_trace(outcome: &SimOutcome, what: &str) -> Result<(String, String), String> {
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

/// `iosched periodic`: run the §3.2 period search over a scenario of
/// periodic applications (the spec's policy and config play no part).
pub fn cmd_periodic(spec: &ScenarioSpec, objective: &str, epsilon: f64) -> Result<String, String> {
    let heuristic = match objective {
        "dilation" => InsertionHeuristic::Congestion,
        "syseff" | "sysefficiency" => InsertionHeuristic::Throughput,
        other => return Err(format!("unknown objective '{other}' (dilation | syseff)")),
    };
    let search = PeriodicFactory::new(heuristic)
        .with_epsilon(epsilon)
        .search()?;
    let platform = spec.platform.build()?;
    let apps = spec
        .workload
        .materialize(&platform)?
        .iter()
        .map(PeriodicAppSpec::from_app)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let result = search
        .run(&platform, &apps, heuristic)
        .ok_or("empty application set")?;
    result
        .schedule
        .validate(&platform)
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
/// (`platforms × workloads × policies × seeds`) from a [`CampaignSpec`]
/// file through the streaming campaign runner, and return the structured
/// [`CampaignResult`] (the `--json` export — full f64 precision, the
/// artifact sharded and single-process runs are diffed on) with the
/// rendered per-cell aggregates. Per-cell rows stream to stderr the
/// moment each cell's last seed block folds in, so long sweeps show
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

/// The usage string printed on `--help` or argument errors.
pub const USAGE: &str = "\
iosched — global HPC I/O scheduling (IPDPS'15 reproduction)

USAGE:
  iosched platforms
  iosched policies
  iosched generate --kind <congested|mix-a|mix-b|mix-c>
                   --platform <intrepid|mira|vesta> [--seed N] [-o FILE]
  iosched run <scenario.json> [--policy <name|all>] [--trace FILE] [-o FILE]
  iosched run --journal FILE [--trace FILE] [-o FILE]
  iosched periodic <scenario.json> [--objective <dilation|syseff>] [--epsilon E]
  iosched campaign <campaign.json> [--threads N] [--json FILE]
                   [--shards N [--out DIR]]
  iosched shard <campaign.json> --index I --of N [--out DIR] [--threads N]
  iosched merge <partials-dir> [-o FILE]
  iosched serve --platform <name> --policy <name> --journal FILE
                [--socket PATH] [--accelerate N]
  iosched serve --replay --journal FILE
  iosched serve --connect SOCKET
  iosched repro [<target>|all] [--runs N]

RUN (see README 'The campaign layer'):
  `iosched run` runs one scenario spec, the file `iosched generate` writes;
  examples/storm_scenario.json is a hand-written one:
  {\"label\": \"storm-demo\", \"platform\": \"intrepid\",
   \"workload\": {\"Congestion\": {\"seed\": 7}}, \"policy\": \"control:pi\",
   \"config\": {\"telemetry\": true, \"external_load\":
              {\"period\": 240.0, \"busy\": 90.0, \"fraction\": 0.7}}}
  It prints SysEfficiency, Dilation and makespan per policy (--policy
  overrides the spec's; `all` runs the online roster), then per run the
  congestion record when the config sets telemetry, and the steady state
  of open streams (a \"Stream\" workload, see examples/stream_scenario.json)
  and warmup/horizon windows. -o writes one JSON record per run; --trace
  writes the decision trace (its last 65536 records) as JSONL; --journal
  replays a serve journal under its own policy and config.

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
  examples/campaign_fig4.json replays the Fig. 4 periodic schedule;
  examples/campaign_stream.json sweeps open-stream arrival rates.

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
";

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_core::policy::OnlinePolicy;
    use iosched_model::AppSpec;

    fn scenario() -> ScenarioSpec {
        cmd_generate(GenerateKind::Congested, "vesta", 3).unwrap()
    }

    /// `scenario()` with its workload's applications.
    fn apps(spec: &ScenarioSpec) -> &[AppSpec] {
        match &spec.workload {
            WorkloadSpec::Explicit(apps) => apps,
            other => panic!("generate writes explicit workloads, not {other:?}"),
        }
    }

    fn build(
        name: &str,
        platform: &Platform,
        apps: &[AppSpec],
    ) -> Result<Box<dyn OnlinePolicy>, String> {
        PolicySpec::parse(name)?.build(platform, apps)
    }

    #[test]
    fn platform_lookup() {
        assert!(platform_preset("intrepid").is_ok());
        assert!(platform_preset("mira").is_ok());
        assert!(platform_preset("vesta").is_ok());
        assert!(platform_preset("summit").is_err());
        assert_eq!(scenario().platform, PlatformSpec::Preset("vesta".into()));
    }

    #[test]
    fn policy_lookup_covers_the_roster() {
        let s = scenario();
        let platform = s.platform.build().unwrap();
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
            let p = build(name, &platform, apps(&s)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!p.name().is_empty());
        }
        // The offline branch builds a schedule for the scenario, so give
        // it one that both insertion heuristics can pack fully.
        let mild = [
            AppSpec::periodic(
                0,
                iosched_model::Time::ZERO,
                256,
                iosched_model::Time::secs(60.0),
                iosched_model::Bytes::gib(100.0),
                3,
            ),
            AppSpec::periodic(
                1,
                iosched_model::Time::ZERO,
                512,
                iosched_model::Time::secs(45.0),
                iosched_model::Bytes::gib(150.0),
                3,
            ),
        ];
        for name in ["periodic:cong", "periodic:throu"] {
            let p = build(name, &platform, &mild).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.name(), name);
        }
        assert!(build("lottery", &platform, apps(&s)).is_err());
        assert!(build("minmax-1.5", &platform, apps(&s)).is_err());
        assert!(build("priority-fairshare", &platform, apps(&s)).is_err());
        // A starving schedule surfaces as a labeled error, not a hang:
        // two pure-I/O hogs each need the whole PFS for the entire
        // single candidate period (tmax = 1), so the second one cannot
        // be placed at any bandwidth-ladder rung.
        let tiny = Platform::new(
            "t",
            1_000,
            iosched_model::Bw::gib_per_sec(0.01),
            iosched_model::Bw::gib_per_sec(0.5),
        );
        let starving = [
            AppSpec::periodic(
                0,
                iosched_model::Time::ZERO,
                50,
                iosched_model::Time::secs(1_000.0),
                iosched_model::Bytes::gib(0.1),
                1,
            ),
            AppSpec::periodic(
                1,
                iosched_model::Time::ZERO,
                50,
                iosched_model::Time::secs(0.0),
                iosched_model::Bytes::gib(500.0),
                1,
            ),
            AppSpec::periodic(
                2,
                iosched_model::Time::ZERO,
                50,
                iosched_model::Time::secs(0.0),
                iosched_model::Bytes::gib(500.0),
                1,
            ),
        ];
        let Err(err) = build("periodic:throu:tmax=1", &tiny, &starving) else {
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
        // The storm of examples/storm_scenario.json: 70% of the PFS away
        // for the first 90s of every 240s cycle.
        let mut s = scenario();
        s.config = Some(
            serde_json::from_str(
                r#"{"telemetry": true,
                    "external_load": {"period": 240.0, "busy": 90.0, "fraction": 0.7}}"#,
            )
            .unwrap(),
        );
        let run = cmd_run(&s, Some("control:pi"), false).unwrap();
        for needle in [
            "utilization",
            "contention",
            "p95",
            "peak backlog",
            "control:pi",
        ] {
            assert!(
                run.report.contains(needle),
                "missing {needle} in:\n{}",
                run.report
            );
        }
        // The record carries the TelemetrySummary.
        let [record] = run.records.as_slice() else {
            panic!("one policy, one record");
        };
        let telemetry = record.telemetry.as_ref().expect("telemetry was on");
        assert!(telemetry.samples > 0);
        assert!(telemetry.mean_contention > 0.0, "congested moments contend");
        assert!(
            record.steady.is_none(),
            "closed unwindowed runs have no steady block"
        );
        // Unknown policies error cleanly.
        assert!(cmd_run(&s, Some("lottery"), false).is_err());
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
        let spec = parse_scenario(&stream_spec_json("fairshare")).unwrap();
        let run = cmd_run(&spec, None, false).unwrap();
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
            assert!(
                run.report.contains(needle),
                "missing {needle} in:\n{}",
                run.report
            );
        }
        // The record round-trips through its JSON export.
        let json = serde_json::to_string_pretty(&run.records).unwrap();
        let records: Vec<RunRecord> = serde_json::from_str(&json).unwrap();
        let [record] = records.as_slice() else {
            panic!("one policy, one record");
        };
        assert_eq!(record.policy, "fairshare");
        let steady = record
            .steady
            .as_ref()
            .expect("streams carry a steady window");
        assert_eq!(steady.admitted, 80);
        assert!(steady.mean_stretch >= 1.0);
        assert!(record.telemetry.is_some());
    }

    #[test]
    fn stream_command_materializes_for_offline_policies() {
        // periodic:* needs the whole roster to plan; the stretched-tmax
        // form packs the 80-app stream roster.
        let spec = parse_scenario(&stream_spec_json("periodic:cong:tmax=32")).unwrap();
        let run = cmd_run(&spec, None, false).unwrap();
        assert!(
            run.report.contains("periodic:cong:tmax=32"),
            "{}",
            run.report
        );
        assert!(run.report.contains("steady state"));
    }

    #[test]
    fn run_prints_the_steady_block_only_for_windowed_or_open_runs() {
        let closed = r#"{
            "label": "closed",
            "platform": "vesta",
            "workload": {"Congestion": {"seed": 0}},
            "policy": "fairshare",
            "config": null
        }"#;
        let run = cmd_run(&parse_scenario(closed).unwrap(), None, false).unwrap();
        assert!(!run.report.contains("steady state"), "{}", run.report);
        assert!(run.records[0].steady.is_none());
        // …but a windowed closed scenario carries one (horizon semantics).
        let windowed = closed.replace("null", r#"{"warmup": 100.0}"#);
        let run = cmd_run(&parse_scenario(&windowed).unwrap(), None, false).unwrap();
        assert!(run.report.contains("steady state"), "{}", run.report);
        assert!(run.records[0].steady.is_some());
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
        let out = cmd_campaign_result(&spec).unwrap().1;
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
        let json = serde_json::to_string_pretty(&s).unwrap();
        assert_eq!(parse_scenario(&json).unwrap(), s);
        assert_eq!(s.policy, PolicySpec::FairShare);
        assert_eq!(s.config, None);
    }

    #[test]
    fn from_json_rejects_invalid_scenarios() {
        let mut s = scenario();
        let platform = s.platform.build().unwrap();
        let WorkloadSpec::Explicit(apps) = &mut s.workload else {
            unreachable!()
        };
        // Blow the processor budget.
        apps.push(AppSpec::periodic(
            apps.len(),
            iosched_model::Time::ZERO,
            platform.procs, // the whole machine again
            iosched_model::Time::secs(1.0),
            iosched_model::Bytes::gib(1.0),
            1,
        ));
        let json = serde_json::to_string(&s).unwrap();
        assert!(cmd_run(&parse_scenario(&json).unwrap(), None, false).is_err());
        // A bare platform + application list is not a scenario spec; the
        // error names the shape to write instead.
        let bare = format!(
            r#"{{"platform": {}, "apps": []}}"#,
            serde_json::to_string(&platform).unwrap()
        );
        let err = parse_scenario(&bare).unwrap_err();
        assert!(err.contains("\"workload\""), "{err}");
    }

    #[test]
    fn simulate_single_policy_renders_a_report() {
        let run = cmd_run(&scenario(), Some("maxsyseff"), false).unwrap();
        assert!(run.report.contains("maxsyseff"));
        assert!(run.report.contains("upper limit"));
        assert!(run.trace.is_none());
    }

    #[test]
    fn simulate_all_runs_the_full_roster() {
        let run = cmd_run(&scenario(), Some("all"), false).unwrap();
        for name in ["roundrobin", "priority-maxsyseff", "fairshare", "fcfs"] {
            assert!(
                run.report.contains(name),
                "missing {name} in:\n{}",
                run.report
            );
        }
        assert_eq!(run.records.len(), PolicySpec::full_roster().len());
        assert!(
            cmd_run(&scenario(), Some("all"), true).is_err(),
            "one trace, one run"
        );
    }

    #[test]
    fn simulate_runs_an_offline_periodic_policy() {
        // Congested-moment scenarios are periodic, so the offline branch
        // of the roster runs through plain `iosched run` too.
        let run = cmd_run(&scenario(), Some("periodic:cong"), false).unwrap();
        assert!(run.report.contains("periodic:cong"), "{}", run.report);
        assert!(run.report.contains("upper limit"));
    }

    #[test]
    fn simulate_with_burst_buffer_requires_spec() {
        let mut s = scenario();
        s.config = Some(SimConfig::with_burst_buffer());
        let bare = s.platform.build().unwrap();
        assert!(bare.burst_buffer.is_none());
        assert!(cmd_run(&s, None, false).is_err());
        s.platform = PlatformSpec::Custom(bare.with_default_burst_buffer());
        let run = cmd_run(&s, None, false).unwrap();
        assert!(run.report.contains("burst buffer on"), "{}", run.report);
    }

    #[test]
    fn periodic_command_reports_a_valid_schedule() {
        let s = scenario();
        let out = cmd_periodic(&s, "dilation", 0.1).unwrap();
        assert!(out.contains("best period"));
        assert!(out.contains("n_per"));
        assert!(cmd_periodic(&s, "bogus", 0.1).is_err());
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY, 1e-17] {
            assert!(cmd_periodic(&s, "dilation", bad).is_err(), "epsilon {bad}");
        }
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
        let out = cmd_campaign_result(&campaign_spec()).unwrap().1;
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
        let out = cmd_campaign_result(&spec).unwrap().1;
        // Recompute maxsyseff's mean SysEfficiency sequentially: the
        // congestion workload at campaign seeds 1..3 on vesta.
        let platform = platform_preset("vesta").unwrap();
        let mut effs = Vec::new();
        for seed in [1, 2, 3] {
            let apps = congested_moment(&platform, seed);
            let result = iosched_sim::simulate(
                &platform,
                &apps,
                build("maxsyseff", &platform, &apps).unwrap().as_mut(),
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
        assert!(cmd_campaign_result(&spec).is_err());
        let mut spec = campaign_spec();
        spec.threads = Some(0);
        assert!(
            cmd_campaign_result(&spec).is_err(),
            "zero threads must not panic"
        );
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
        let out = cmd_campaign_result(&spec).unwrap().1;
        assert!(
            out.contains("24 cells") || out.contains("in 24 cells"),
            "{out}"
        );
        for needle in ["roundrobin", "priority-minmax-0.50", "mix("] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }
}

//! The paper's evaluation as one table: Figs. 1–16, Tables 1–2 and the
//! ablations, each a [`Target`] that `iosched repro <target>` renders.
//!
//! The experiments themselves live in [`crate::experiments`] and return
//! structured rows; a target only formats them into the text the paper
//! reports, returned as a `String` so tests read it without a process.
//! A sized target takes one count (applications for Fig. 1, jobs for
//! Fig. 5, mixes for Figs. 6–7, congested cases for the rest) with the
//! evaluation's default; the others are fixed experiments. Figs. 14–16
//! run the real-thread IOR harness, so their numbers depend on the wall
//! clock; every other target prints the same bytes on every run.

use crate::experiments::tables::{self, Machine, TablesResult};
use crate::experiments::{ablations, fig01, fig02, fig03, fig04, fig05, fig06, fig07};
use crate::experiments::{fig14, fig15, fig16};
use crate::report::{dil, pct, Table};
use iosched_model::stats::Histogram;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::rc::Rc;

/// How a target is sized and rendered.
#[derive(Debug, Clone, Copy)]
pub enum Render {
    /// Takes a count (`--runs`), `default` when none is given.
    Sized {
        /// The count the paper's evaluation uses.
        default: usize,
        /// Render at a given count.
        render: fn(usize) -> String,
    },
    /// A fixed experiment.
    Fixed(fn() -> String),
}

/// One reproduction target.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// The name `iosched repro` takes (`fig06`, `table1`, …).
    pub name: &'static str,
    /// How the target is sized and rendered.
    pub render: Render,
}

impl Target {
    const fn sized(name: &'static str, default: usize, render: fn(usize) -> String) -> Self {
        Self {
            name,
            render: Render::Sized { default, render },
        }
    }

    const fn fixed(name: &'static str, render: fn() -> String) -> Self {
        Self {
            name,
            render: Render::Fixed(render),
        }
    }

    /// The default `--runs` count, or `None` for a fixed experiment.
    #[must_use]
    pub fn default_runs(&self) -> Option<usize> {
        match self.render {
            Render::Sized { default, .. } => Some(default),
            Render::Fixed(_) => None,
        }
    }

    /// Render at `runs` (the default when `None`); a count on a fixed
    /// experiment is an error.
    pub fn render(&self, runs: Option<NonZeroUsize>) -> Result<String, String> {
        match (self.render, runs) {
            (Render::Sized { default, render }, runs) => {
                Ok(render(runs.map_or(default, NonZeroUsize::get)))
            }
            (Render::Fixed(render), None) => Ok(render()),
            (Render::Fixed(_), Some(_)) => Err(format!(
                "{} is a fixed experiment and takes no --runs",
                self.name
            )),
        }
    }
}

/// Every target, in the paper's order.
pub const TARGETS: &[Target] = &[
    Target::sized("fig01", 400, fig01),
    Target::fixed("fig02", fig02),
    Target::fixed("fig03", fig03),
    Target::fixed("fig04", fig04),
    Target::sized("fig05", 20_000, fig05),
    Target::sized("fig06", 200, fig06),
    Target::sized("fig07", 50, fig07),
    Target::sized("fig08", 56, fig08),
    Target::sized("fig09", 56, fig09),
    Target::sized("fig10", 56, fig10),
    Target::sized("fig11", 11, fig11),
    Target::sized("fig12", 11, fig12),
    Target::sized("fig13", 11, fig13),
    Target::fixed("fig14", fig14),
    Target::fixed("fig15", fig15),
    Target::fixed("fig16", fig16),
    Target::sized("table1", 56, table1),
    Target::sized("table2", 11, table2),
    Target::sized("ablation_gamma", 12, ablation_gamma),
    Target::fixed("ablation_epsilon", ablation_epsilon),
    Target::sized("ablation_bb_capacity", 8, ablation_bb_capacity),
];

/// `iosched repro [<target>|all] [--runs N]`: with no target, list the
/// targets; `all` renders every target at its default; a target name
/// renders that target, at `runs` when given.
pub fn run(target: Option<&str>, runs: Option<NonZeroUsize>) -> Result<String, String> {
    match (target, runs) {
        (None, None) => Ok(listing()),
        (None | Some("all"), Some(_)) => {
            Err("--runs sizes one target; name it (`iosched repro` lists them)".into())
        }
        (Some("all"), None) => TARGETS.iter().map(|t| t.render(None)).collect(),
        (Some(name), runs) => TARGETS
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("unknown target '{name}' (`iosched repro` lists them)"))?
            .render(runs),
    }
}

/// The target table with each default count (`-` for a fixed one).
fn listing() -> String {
    let mut out = format!("{:<22} {:>6}\n", "target", "--runs");
    for t in TARGETS {
        let runs = t.default_runs().map_or("-".into(), |n| n.to_string());
        let _ = writeln!(out, "{:<22} {runs:>6}", t.name);
    }
    out.push_str(
        "\n`iosched repro <target> [--runs N]` renders one target (N replaces the\n\
         default count of a sized target); `iosched repro all` renders every\n\
         target at its default.\n",
    );
    out
}

/// A table under its `== caption ==` banner.
fn captioned(title: &str, table: &Table) -> String {
    format!("\n== {title} ==\n{}", table.render())
}

fn fig01(apps: usize) -> String {
    let result = fig01::run(apps);
    let mut hist = Histogram::new(0.0, 1.0, 10);
    for &d in &result.decreases {
        hist.add(d);
    }
    let mut t = Table::new(["decrease bin", "applications"]);
    for (center, count) in hist.centers() {
        t.row([
            format!(
                "{:>4.0}-{:>3.0}%",
                (center - 0.05) * 100.0,
                (center + 0.05) * 100.0
            ),
            count.to_string(),
        ]);
    }
    let mut out = captioned(
        &format!("Fig. 1 — I/O throughput decrease over {apps} applications (paper: up to ~70 %)"),
        &t,
    );
    let _ = writeln!(
        out,
        "max decrease: {:.1}%   median: {:.1}%",
        result.max() * 100.0,
        result.median() * 100.0
    );
    out
}

fn fig02() -> String {
    let mut t = Table::new([
        "platform",
        "nodes N",
        "b (GiB/s)",
        "B (GiB/s)",
        "saturation nodes",
    ]);
    for r in fig02::run() {
        t.row([
            r.name,
            r.procs.to_string(),
            format!("{:.3}", r.proc_bw_gib),
            format!("{:.1}", r.total_bw_gib),
            r.saturation_nodes.to_string(),
        ]);
    }
    captioned(
        "Fig. 2 — model instantiation (paper: Intrepid architecture diagram)",
        &t,
    )
}

fn fig03() -> String {
    let result = fig03::run();
    let mut t = Table::new(["t start (s)", "t end (s)", "allocation (app@GiB/s)"]);
    for seg in &result.segments {
        let grants = seg
            .grants
            .iter()
            .map(|(id, bw)| format!("{}@{:.1}", id.0, bw.as_gib_per_sec()))
            .collect::<Vec<_>>()
            .join(" ");
        t.row([
            format!("{:.2}", seg.start.as_secs()),
            format!("{:.2}", seg.end.as_secs()),
            if grants.is_empty() {
                "-".into()
            } else {
                grants
            },
        ]);
    }
    captioned(
        &format!(
            "Fig. 3 — three applications sharing B = {:.0} GiB/s",
            result.total_bw_gib
        ),
        &t,
    )
}

fn fig04() -> String {
    const MAX_ROWS_PER_APP: usize = 5;
    let result = fig04::run();
    let mut out = format!(
        "period T = {:.2} s   SysEfficiency = {}%   Dilation = {}   (steady state)\n",
        result.schedule.period.as_secs(),
        pct(result.report.sys_efficiency),
        dil(result.report.dilation),
    );
    let _ = writeln!(
        out,
        "engine replay over {} periods ({}): SysEfficiency = {}%   Dilation = {}",
        fig04::REPLAY_PERIODS,
        result.simulated.policy,
        pct(result.simulated.sys_efficiency.mean),
        dil(result.simulated.dilation.mean),
    );
    let mut t = Table::new(["app", "instance", "compute", "I/O window", "bw (units/s)"]);
    for plan in &result.schedule.plans {
        for inst in plan.instances.iter().take(MAX_ROWS_PER_APP) {
            t.row([
                plan.app.to_string(),
                inst.index.to_string(),
                format!(
                    "[{:.1}, {:.1})",
                    inst.compute_start.as_secs(),
                    inst.compute_end.as_secs()
                ),
                format!(
                    "[{:.1}, {:.1})",
                    inst.io_start.as_secs(),
                    inst.io_end.as_secs()
                ),
                format!("{:.1}", inst.io_bw.get()),
            ]);
        }
        if plan.instances.len() > MAX_ROWS_PER_APP {
            t.row([
                plan.app.to_string(),
                "…".into(),
                format!(
                    "(+{} more instances)",
                    plan.instances.len() - MAX_ROWS_PER_APP
                ),
                "…".into(),
                "…".into(),
            ]);
        }
    }
    out += &captioned(
        "Fig. 4 — one regular period (paper: n_per = 3, 3, 1, 1)",
        &t,
    );
    let _ = writeln!(out, "n_per = {:?}", result.n_per);
    out
}

fn fig05(jobs: usize) -> String {
    let mut t = Table::new(["category", "jobs", "usage share %", "mean I/O time %"]);
    for r in fig05::run(jobs, 2013) {
        t.row([
            format!("{:?}", r.category),
            r.jobs.to_string(),
            pct(r.usage_share),
            pct(r.mean_io_fraction),
        ]);
    }
    captioned(
        &format!("Fig. 5 — synthetic year of {jobs} jobs (paper: usage/day and %I/O per type)"),
        &t,
    )
}

fn fig06(runs: usize) -> String {
    let rows = fig06::run(runs);
    let mut out = String::new();
    for (label, desc) in [
        ("a", "10 large applications, I/O ratio 20 %"),
        ("b", "50 small + 5 large, I/O ratio 20 %"),
        ("c", "50 small + 5 large, I/O ratio 35 %"),
    ] {
        let mut t = Table::new(["policy", "SysEfficiency %", "Dilation", "upper limit %"]);
        for r in rows.iter().filter(|r| r.mix == label) {
            t.row([
                r.policy.clone(),
                pct(r.sys_efficiency),
                dil(r.dilation),
                pct(r.upper_limit),
            ]);
        }
        out += &captioned(&format!("Fig. 6({label}) — {desc} ({runs} mixes)"), &t);
    }
    out
}

fn fig07(runs: usize) -> String {
    let mut t = Table::new(["sensibility %", "policy", "SysEfficiency %", "Dilation"]);
    for r in &fig07::run(runs) {
        t.row([
            r.sensibility_pct.to_string(),
            r.policy.clone(),
            pct(r.sys_efficiency),
            dil(r.dilation),
        ]);
    }
    captioned(
        &format!("Fig. 7 — sensibility sweep ({runs} mixes/point; paper: 'almost no impact')"),
        &t,
    )
}

/// Figs. 8 and 11: the Priority heuristics against the native scheduler.
const PRIORITY_VS_INTREPID: [&str; 4] = [
    "priority-maxsyseff",
    "priority-mindilation",
    "intrepid",
    "upper-limit",
];
const PRIORITY_VS_MIRA: [&str; 4] = [
    "priority-maxsyseff",
    "priority-mindilation",
    "mira",
    "upper-limit",
];
/// Figs. 9 and 12: the Priority MinMax-γ family between its two ends.
const PRIORITY_MINMAX: [&str; 5] = [
    "priority-maxsyseff",
    "priority-minmax-0.25",
    "priority-minmax-0.50",
    "priority-minmax-0.75",
    "priority-mindilation",
];
/// Figs. 10 and 13: the non-Priority heuristics against the native
/// scheduler.
const PLAIN_VS_INTREPID: [&str; 4] = ["maxsyseff", "mindilation", "intrepid", "upper-limit"];
const PLAIN_VS_MIRA: [&str; 4] = ["maxsyseff", "mindilation", "mira", "upper-limit"];

/// The congested-case sweep of `machine` over its first `limit` cases,
/// run once per process: Figs. 8–10 and Table 1 read the Intrepid sweep,
/// Figs. 11–13 and Table 2 the Mira one, so `repro all` runs each once.
/// The sweep is deterministic, so a kept result is the result a rerun
/// would compute.
fn sweep(machine: Machine, limit: usize) -> Rc<TablesResult> {
    type Sweeps = Vec<((Machine, usize), Rc<TablesResult>)>;
    thread_local! {
        static SWEEPS: RefCell<Sweeps> = const { RefCell::new(Vec::new()) };
    }
    SWEEPS.with(|sweeps| {
        if let Some((_, result)) = sweeps.borrow().iter().find(|(k, _)| *k == (machine, limit)) {
            return Rc::clone(result);
        }
        let result = Rc::new(tables::run(machine, limit));
        sweeps
            .borrow_mut()
            .push(((machine, limit), Rc::clone(&result)));
        result
    })
}

/// Figs. 8–13: the per-case series of `series` over the first `limit`
/// congested cases of `machine`.
fn case_series(machine: Machine, limit: usize, series: &[&str], caption: &str) -> String {
    let result = sweep(machine, limit);
    let mut t = Table::new(["case", "scheduler", "SysEfficiency %", "Dilation"]);
    for c in result
        .cases
        .iter()
        .filter(|c| series.contains(&c.scheduler.as_str()))
    {
        t.row([
            c.case.to_string(),
            c.scheduler.clone(),
            pct(c.sys_efficiency),
            dil(c.dilation),
        ]);
    }
    captioned(caption, &t)
}

fn fig08(n: usize) -> String {
    let caption = format!("Fig. 8 — Priority heuristics vs Intrepid over {n} congested cases");
    case_series(Machine::Intrepid, n, &PRIORITY_VS_INTREPID, &caption)
}

fn fig09(n: usize) -> String {
    let caption = format!("Fig. 9 — Priority MinMax-γ sweep over {n} Intrepid congested cases");
    case_series(Machine::Intrepid, n, &PRIORITY_MINMAX, &caption)
}

fn fig10(n: usize) -> String {
    let caption = format!("Fig. 10 — non-Priority heuristics vs Intrepid over {n} congested cases");
    case_series(Machine::Intrepid, n, &PLAIN_VS_INTREPID, &caption)
}

fn fig11(n: usize) -> String {
    let caption = format!("Fig. 11 — Priority heuristics vs Mira over {n} congested cases");
    case_series(Machine::Mira, n, &PRIORITY_VS_MIRA, &caption)
}

fn fig12(n: usize) -> String {
    let caption = format!("Fig. 12 — Priority MinMax-γ sweep over {n} Mira congested cases");
    case_series(Machine::Mira, n, &PRIORITY_MINMAX, &caption)
}

fn fig13(n: usize) -> String {
    let caption = format!("Fig. 13 — non-Priority heuristics vs Mira over {n} congested cases");
    case_series(Machine::Mira, n, &PLAIN_VS_MIRA, &caption)
}

/// Tables 1–2: per-scheduler averages over the first `limit` congested
/// cases of `machine`.
fn averages(machine: Machine, limit: usize, caption: &str) -> String {
    let mut t = Table::new(["scheduler", "Dilation (min)", "SysEfficiency (max)"]);
    for r in &sweep(machine, limit).rows {
        t.row([
            r.scheduler.clone(),
            dil(r.dilation),
            format!("{:.2}", r.sys_efficiency_pct),
        ]);
    }
    captioned(caption, &t)
}

fn table1(n: usize) -> String {
    let caption = format!(
        "Table 1 — averages over {n} Intrepid congested moments (paper: MaxSysEff \
         2.46/85.35 … MinDilation 1.63/70.45, Intrepid 2.55/71.12, upper 91.59)"
    );
    averages(Machine::Intrepid, n, &caption)
}

fn table2(n: usize) -> String {
    let caption = format!(
        "Table 2 — averages over {n} Mira congested moments (paper: MaxSysEff \
         1.82/73.96 … MinDilation 1.27/61.62, Mira 2.01/64.26, upper 85.04)"
    );
    averages(Machine::Mira, n, &caption)
}

/// Simulated seconds per wall second for the real-thread IOR targets:
/// lower is more faithful, and 1,000× keeps each under a minute.
const IOR_SPEEDUP: f64 = 1_000.0;

fn fig14() -> String {
    let mut t = Table::new(["scenario", "apps", "overhead % (no BB)", "overhead % (BB)"]);
    for r in &fig14::run(IOR_SPEEDUP) {
        t.row([
            r.scenario.clone(),
            r.apps.to_string(),
            format!("{:.2}", r.overhead_no_bb * 100.0),
            format!("{:.2}", r.overhead_bb * 100.0),
        ]);
    }
    captioned(
        "Fig. 14 — scheduler overhead per scenario (paper: 1–5.3 %, <3 % for ≥3 apps)",
        &t,
    )
}

fn fig15() -> String {
    let mut t = Table::new(["scenario", "variant", "SysEfficiency %", "Dilation"]);
    for r in &fig15::run(IOR_SPEEDUP) {
        t.row([
            r.scenario.clone(),
            r.variant.clone(),
            pct(r.sys_efficiency),
            dil(r.dilation),
        ]);
    }
    captioned(
        "Fig. 15 — Vesta scenarios (paper: with ≥3 apps the heuristics without BB \
         match or beat the native scheduler with BB)",
        &t,
    )
}

fn fig16() -> String {
    let mut t = Table::new([
        "policy",
        "app0 (512)",
        "app1 (256)",
        "app2 (256)",
        "app3 (32)",
    ]);
    for r in &fig16::run(IOR_SPEEDUP, 42) {
        let mut cells = vec![r.policy.clone()];
        cells.extend(r.dilations.iter().map(|&d| dil(d)));
        t.row(cells);
    }
    captioned(
        "Fig. 16 — per-application dilation, 512/256/256/32 \
         (paper: MaxSysEff favors big apps; MinDilation lowers all nearly uniformly)",
        &t,
    )
}

fn ablation_gamma(cases: usize) -> String {
    let mut t = Table::new(["gamma", "SysEfficiency %", "Dilation"]);
    for r in &ablations::gamma_sweep(11, cases) {
        t.row([
            format!("{:.1}", r.gamma),
            pct(r.sys_efficiency),
            dil(r.dilation),
        ]);
    }
    captioned(
        &format!(
            "Ablation — MinMax-γ sweep over {cases} Intrepid congested cases \
             (γ=0 ≡ MaxSysEff, γ=1 ≡ MinDilation)"
        ),
        &t,
    )
}

fn ablation_epsilon() -> String {
    let mut t = Table::new(["epsilon", "candidate periods", "replayed Dilation"]);
    for r in &ablations::epsilon_sweep(&[0.5, 0.2, 0.1, 0.05, 0.02, 0.01]) {
        t.row([
            format!("{:.2}", r.epsilon),
            r.candidates.to_string(),
            dil(r.dilation),
        ]);
    }
    captioned(
        "Ablation — period-search granularity (Insert-In-Schedule-Cong, Intrepid case 17)",
        &t,
    )
}

fn ablation_bb_capacity(cases: usize) -> String {
    let capacities = [1.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0];
    let mut t = Table::new(["BB capacity (s of B)", "native SysEfficiency %"]);
    for r in &ablations::bb_capacity_sweep(&capacities, cases) {
        t.row([format!("{:.0}", r.capacity_secs), pct(r.sys_efficiency)]);
    }
    captioned(
        &format!("Ablation — native scheduler vs burst-buffer capacity ({cases} Intrepid cases)"),
        &t,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The caption every target's (first) banner opens with.
    fn caption_prefix(name: &str) -> String {
        match (name.strip_prefix("fig"), name.strip_prefix("table")) {
            (Some("06"), _) => "== Fig. 6(a) — ".into(),
            (Some(n), _) => format!("== Fig. {} — ", n.trim_start_matches('0')),
            (_, Some(n)) => format!("== Table {n} — "),
            _ => "== Ablation — ".into(),
        }
    }

    /// Checks a rendered target: its caption banner, then a table.
    fn check(name: &str, out: &str) {
        let banner = out
            .lines()
            .find(|l| l.starts_with("== "))
            .unwrap_or_else(|| panic!("{name}: no caption banner in {out:?}"));
        assert!(
            banner.starts_with(&caption_prefix(name)) && banner.ends_with(" =="),
            "{name}: banner {banner:?}"
        );
        // Fig. 4 prints its schedule summary above the banner; every
        // other target opens with it.
        if name != "fig04" {
            assert!(out.starts_with("\n== "), "{name}: {out:?}");
        }
        assert!(
            out.lines().any(|l| l.starts_with("---")),
            "{name}: no table"
        );
    }

    #[test]
    fn the_table_has_21_unique_targets() {
        let names: HashSet<&str> = TARGETS.iter().map(|t| t.name).collect();
        assert_eq!(TARGETS.len(), 21);
        assert_eq!(names.len(), 21);
        assert!(!names.contains("all"));
    }

    #[test]
    fn every_deterministic_target_renders_under_its_caption() {
        // Figs. 14–16 run real threads for tens of seconds; their
        // experiment modules test them.
        let real_threads = ["fig14", "fig15", "fig16"];
        let one = NonZeroUsize::new(1);
        for t in TARGETS.iter().filter(|t| !real_threads.contains(&t.name)) {
            let out = match t.render {
                Render::Sized { .. } => t.render(one),
                Render::Fixed(_) => t.render(None),
            }
            .unwrap();
            check(t.name, &out);
        }
    }
}

//! `iosched` binary: thin argument parsing over [`iosched_cli`].

use iosched_bench::campaign::{platform_preset, CampaignSpec, ScenarioSpec};
use iosched_cli::{
    cmd_campaign_result, cmd_campaign_sharded, cmd_generate, cmd_merge, cmd_periodic,
    cmd_platforms, cmd_policies, cmd_run, cmd_run_journal, cmd_shard, parse_scenario, GenerateKind,
    USAGE,
};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// One command's arguments, parsed strictly: its operand, and each flag
/// it was given with its value (empty for a boolean flag).
struct Args {
    operand: Option<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parse the arguments after `command`. `values` lists the flags
    /// that take a value, `switches` the boolean ones, and `operand`
    /// says whether one operand may appear. An unknown flag, a flag given
    /// twice, a flag missing its value or an extra operand is an error.
    fn parse(
        command: &str,
        args: &[String],
        values: &[&str],
        switches: &[&str],
        operand: bool,
    ) -> Result<Self, String> {
        let mut parsed = Self {
            operand: None,
            flags: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let value = if values.contains(&arg.as_str()) {
                rest.next().ok_or(format!("{arg} needs a value"))?.clone()
            } else if switches.contains(&arg.as_str()) {
                String::new()
            } else if arg.starts_with('-') {
                return Err(format!("unknown {command} flag '{arg}'"));
            } else if operand && parsed.operand.is_none() {
                parsed.operand = Some(arg.clone());
                continue;
            } else {
                return Err(format!("unexpected {command} argument '{arg}'"));
            };
            if parsed.has(arg) {
                return Err(format!("{arg} given twice"));
            }
            parsed.flags.push((arg.clone(), value));
        }
        Ok(parsed)
    }

    /// The value of `flag`, if given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// Refuse the first flag given outside `allowed` with the error
    /// `<mode>; drop <flag>`: the chosen mode never reads that flag, so
    /// accepting it would ignore it silently.
    fn only(&self, allowed: &[&str], mode: &str) -> Result<(), String> {
        let mut given = self.flags.iter().map(|(f, _)| f);
        match given.find(|f| !allowed.contains(&f.as_str())) {
            Some(flag) => Err(format!("{mode}; drop {flag}")),
            None => Ok(()),
        }
    }

    /// The value of `flag` parsed as a `T`, if given.
    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad {flag} value '{v}'")))
            .transpose()
    }

    /// The `-o`/`--output` file, if given.
    fn output(&self) -> Option<&str> {
        self.value("-o").or_else(|| self.value("--output"))
    }

    /// The operand, if given.
    fn operand(&self) -> Option<&str> {
        self.operand.as_deref()
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first().map(String::as_str) else {
        return Ok(USAGE.to_string());
    };
    let rest = &args[1..];
    let parse = |values: &[&str], switches: &[&str], operand: bool| {
        Args::parse(command, rest, values, switches, operand)
    };
    match command {
        "platforms" => parse(&[], &[], false).map(|_| cmd_platforms()),
        "policies" => parse(&[], &[], false).map(|_| cmd_policies()),
        "generate" => {
            let args = parse(
                &["--kind", "--platform", "--seed", "-o", "--output"],
                &[],
                false,
            )?;
            let kind = GenerateKind::parse(args.value("--kind").ok_or("generate needs --kind")?)?;
            let platform = args
                .value("--platform")
                .ok_or("generate needs --platform")?;
            let seed: u64 = args.parsed("--seed")?.unwrap_or(0);
            let spec = cmd_generate(kind, platform, seed)?;
            let json = serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?;
            match args.output() {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
                    Ok(format!(
                        "wrote {} on {} to {path}\n",
                        spec.workload.label(),
                        spec.platform.label()
                    ))
                }
                None => Ok(json),
            }
        }
        "run" => cmd_run_args(&parse(
            &["--policy", "--journal", "--trace", "-o", "--output"],
            &[],
            true,
        )?),
        "periodic" => {
            let args = parse(&["--objective", "--epsilon"], &[], true)?;
            let scenario = load(args.operand().ok_or("periodic needs a scenario file")?)?;
            let objective = args.value("--objective").unwrap_or("dilation");
            let epsilon: f64 = args.parsed("--epsilon")?.unwrap_or(0.05);
            cmd_periodic(&scenario, objective, epsilon)
        }
        "campaign" => {
            let args = parse(&["--threads", "--shards", "--out", "--json"], &[], true)?;
            if args.has("--out") && !args.has("--shards") {
                return Err("--out names the partials directory of a --shards run; \
                            add --shards N or drop --out"
                    .into());
            }
            let path = args
                .operand()
                .ok_or("campaign needs a campaign spec file")?;
            let spec = load_campaign(path, &args)?;
            let (result, out) = match args.parsed("--shards")? {
                Some(shards) => {
                    let dir = partials_dir(&args, &spec);
                    let exe = std::env::current_exe()
                        .map_err(|e| format!("cannot locate own executable: {e}"))?;
                    cmd_campaign_sharded(&exe, path, &spec, shards, &dir)?
                }
                None => cmd_campaign_result(&spec)?,
            };
            match args.value("--json") {
                Some(json_path) => {
                    write_json(json_path, &result)?;
                    Ok(format!("{out}\nwrote campaign result to {json_path}\n"))
                }
                None => Ok(out),
            }
        }
        "shard" => {
            let args = parse(&["--index", "--of", "--out", "--threads"], &[], true)?;
            let spec = load_campaign(
                args.operand().ok_or("shard needs a campaign spec file")?,
                &args,
            )?;
            let index = args.parsed("--index")?.ok_or("shard needs --index")?;
            let of = args.parsed("--of")?.ok_or("shard needs --of")?;
            cmd_shard(&spec, index, of, &partials_dir(&args, &spec))
        }
        "merge" => {
            let args = parse(&["-o", "--output"], &[], true)?;
            let dir = args.operand().ok_or("merge needs a partials directory")?;
            let (result, out) = cmd_merge(std::path::Path::new(dir))?;
            match args.output() {
                Some(json_path) => {
                    write_json(json_path, &result)?;
                    Ok(format!(
                        "{out}\nwrote merged campaign result to {json_path}\n"
                    ))
                }
                None => Ok(out),
            }
        }
        "serve" => cmd_serve(&parse(
            &[
                "--platform",
                "--policy",
                "--journal",
                "--socket",
                "--accelerate",
                "--connect",
            ],
            &["--replay"],
            false,
        )?),
        "repro" => {
            let args = parse(&["--runs"], &[], true)?;
            let runs = args
                .value("--runs")
                .map(|n| {
                    n.parse::<NonZeroUsize>().map_err(|_| {
                        format!("bad --runs value '{n}' (expected a positive integer)")
                    })
                })
                .transpose()?;
            iosched_bench::repro::run(args.operand(), runs)
        }
        "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Read a campaign spec file, applying a `--threads` override.
fn load_campaign(path: &str, args: &Args) -> Result<CampaignSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spec = CampaignSpec::from_json(&text)?;
    if let Some(n) = args.parsed("--threads")? {
        spec.threads = Some(n);
    }
    Ok(spec)
}

/// The `--out` partials directory (default `<name>.partials`).
fn partials_dir(args: &Args, spec: &CampaignSpec) -> PathBuf {
    args.value("--out").map_or_else(
        || PathBuf::from(format!("{}.partials", spec.name)),
        PathBuf::from,
    )
}

/// Write `value` as pretty JSON plus a trailing newline.
fn write_json(path: &str, value: &impl serde::Serialize) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))
}

/// `iosched run <scenario.json> [--policy NAME|all] [--trace FILE] [-o
/// FILE]` or `iosched run --journal FILE [--trace FILE] [-o FILE]`: one
/// run path for closed rosters, open streams and serve journals.
fn cmd_run_args(args: &Args) -> Result<String, String> {
    let (policy, trace) = (args.value("--policy"), args.value("--trace"));
    let run = match (args.operand(), args.value("--journal")) {
        (Some(_), Some(_)) => return Err("run takes a scenario file or --journal, not both".into()),
        (None, Some(_)) if policy.is_some() => {
            return Err("--journal replays the journal's own policy; drop --policy".into())
        }
        (None, Some(journal)) => cmd_run_journal(std::path::Path::new(journal), trace.is_some())?,
        (Some(path), None) => cmd_run(&load(path)?, policy, trace.is_some())?,
        (None, None) => return Err("run needs a scenario file or --journal FILE".into()),
    };
    let mut out = run.report;
    if let (Some(path), Some((jsonl, summary))) = (trace, run.trace) {
        std::fs::write(path, &jsonl).map_err(|e| format!("{path}: {e}"))?;
        let _ = write!(
            out,
            "\n{summary}wrote {} trace line(s) to {path}\n",
            jsonl.lines().count()
        );
    }
    if let Some(path) = args.output() {
        write_json(path, &run.records)?;
        let _ = write!(
            out,
            "\nwrote {} run record(s) to {path}\n",
            run.records.len()
        );
    }
    Ok(out)
}

/// `iosched serve`: the scheduler daemon (and its `--replay` verifier
/// and `--connect` client). The daemon writes all protocol output
/// itself (flushed per line); this function returns text only for the
/// replay and error paths.
fn cmd_serve(args: &Args) -> Result<String, String> {
    // Client mode: pipe stdin to a running daemon's socket.
    if let Some(socket) = args.value("--connect") {
        args.only(
            &["--connect"],
            "serve --connect only pipes stdin to a running daemon",
        )?;
        iosched_serve::connect(std::path::Path::new(socket))?;
        return Ok(String::new());
    }
    let journal = args
        .value("--journal")
        .ok_or("serve needs --journal FILE")?;
    // Batch mode: replay a journal through the stream engine and print
    // the `{\"final\":…}` line a live session would have produced.
    if args.has("--replay") {
        args.only(
            &["--replay", "--journal"],
            "serve --replay re-runs the journal under its own recipe and serves nothing",
        )?;
        let (_, outcome, accepted) = iosched_serve::replay(std::path::Path::new(journal), None)?;
        return Ok(iosched_serve::protocol::final_line(&outcome, accepted) + "\n");
    }
    let platform = args.value("--platform").ok_or("serve needs --platform")?;
    let policy = args.value("--policy").ok_or("serve needs --policy")?;
    let accel: f64 = args.parsed("--accelerate")?.unwrap_or(0.0);
    let config = iosched_sim::SimConfig {
        // Recorded in the journal's recipe, so `serve --replay` and `run
        // --journal` report the telemetry block; the live engine runs
        // without the series (`run_daemon`).
        telemetry: true,
        ..iosched_sim::SimConfig::default()
    };
    let spec = iosched_serve::ServeSpec {
        platform: platform_preset(platform)?,
        policy: iosched_core::registry::PolicyFactory::parse(policy)?,
        accel,
        config,
    };
    let opts = iosched_serve::DaemonOptions {
        journal: PathBuf::from(journal),
        socket: args.value("--socket").map(PathBuf::from),
    };
    iosched_serve::run_daemon(&spec, &opts)?;
    Ok(String::new())
}

fn load(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_scenario(&text).map_err(|e| format!("{path}: {e}"))
}

//! `iosched` binary: thin argument parsing over [`iosched_cli`].

use iosched_bench::campaign::{CampaignSpec, ScenarioSpec};
use iosched_cli::{
    cmd_campaign_result, cmd_campaign_sharded, cmd_generate, cmd_merge, cmd_periodic,
    cmd_platforms, cmd_policies, cmd_shard, cmd_simulate, cmd_stream, cmd_telemetry,
    cmd_trace_journal, cmd_trace_scenario, GenerateKind, ScenarioFile, USAGE,
};
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

/// Pull the value following a `--flag` out of `args`.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// First positional operand after the subcommand, skipping `--flag
/// value` pairs (so flags may come before the file, e.g.
/// `iosched campaign --shards 4 campaign.json`).
fn positional(args: &[String], value_flags: &[&str]) -> Option<String> {
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        if value_flags.contains(&arg.as_str()) {
            i += 2;
        } else if arg.starts_with('-') {
            i += 1;
        } else {
            return Some(arg.clone());
        }
    }
    None
}

/// Parse a required integer flag.
fn int_flag(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    flag_value(args, flag)
        .map(|s| s.parse().map_err(|_| format!("bad {flag} value '{s}'")))
        .transpose()
}

fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("platforms") => Ok(cmd_platforms()),
        Some("policies") => Ok(cmd_policies()),
        Some("generate") => {
            let kind =
                GenerateKind::parse(&flag_value(args, "--kind").ok_or("generate needs --kind")?)?;
            let platform = flag_value(args, "--platform").ok_or("generate needs --platform")?;
            let seed: u64 = flag_value(args, "--seed")
                .map(|s| s.parse().map_err(|_| format!("bad seed '{s}'")))
                .transpose()?
                .unwrap_or(0);
            let file = cmd_generate(kind, &platform, seed)?;
            let json = file.to_json()?;
            match flag_value(args, "-o").or_else(|| flag_value(args, "--output")) {
                Some(path) => {
                    std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?;
                    Ok(format!(
                        "wrote {} applications on {} to {path}\n",
                        file.apps.len(),
                        file.platform.name
                    ))
                }
                None => Ok(json),
            }
        }
        Some("simulate") => {
            let path = args.get(1).ok_or("simulate needs a scenario file")?;
            if path.starts_with("--") {
                return Err("simulate needs a scenario file as its first argument".into());
            }
            let scenario = load(path)?;
            let policy = flag_value(args, "--policy").ok_or("simulate needs --policy")?;
            cmd_simulate(&scenario, &policy, has_flag(args, "--burst-buffer"))
        }
        Some("telemetry") => {
            let path = args.get(1).ok_or("telemetry needs a scenario file")?;
            if path.starts_with("--") {
                return Err("telemetry needs a scenario file as its first argument".into());
            }
            let scenario = load(path)?;
            let policy = flag_value(args, "--policy").ok_or("telemetry needs --policy")?;
            let load_spec = flag_value(args, "--external-load")
                .map(|s| parse_external_load(&s))
                .transpose()?;
            let (report, json) = cmd_telemetry(&scenario, &policy, load_spec)?;
            match flag_value(args, "-o").or_else(|| flag_value(args, "--output")) {
                Some(out_path) => {
                    std::fs::write(&out_path, json + "\n")
                        .map_err(|e| format!("{out_path}: {e}"))?;
                    Ok(format!("{report}\nwrote telemetry summary to {out_path}\n"))
                }
                None => Ok(report),
            }
        }
        Some("stream") => {
            let path = args.get(1).ok_or("stream needs a scenario spec file")?;
            if path.starts_with("--") {
                return Err("stream needs a scenario spec file as its first argument".into());
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let spec: ScenarioSpec = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            let (report, json) = cmd_stream(&spec)?;
            match flag_value(args, "-o").or_else(|| flag_value(args, "--output")) {
                Some(out_path) => {
                    std::fs::write(&out_path, json + "\n")
                        .map_err(|e| format!("{out_path}: {e}"))?;
                    Ok(format!("{report}\nwrote stream record to {out_path}\n"))
                }
                None => Ok(report),
            }
        }
        Some("periodic") => {
            let path = args.get(1).ok_or("periodic needs a scenario file")?;
            if path.starts_with("--") {
                return Err("periodic needs a scenario file as its first argument".into());
            }
            let scenario = load(path)?;
            let objective = flag_value(args, "--objective").unwrap_or_else(|| "dilation".into());
            let epsilon: f64 = flag_value(args, "--epsilon")
                .map(|s| s.parse().map_err(|_| format!("bad epsilon '{s}'")))
                .transpose()?
                .unwrap_or(0.05);
            cmd_periodic(&scenario, &objective, epsilon)
        }
        Some("campaign") => {
            let path = positional(args, &["--threads", "--shards", "--out", "--json"])
                .ok_or("campaign needs a campaign spec file")?;
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut spec = CampaignSpec::from_json(&text)?;
            if let Some(n) = int_flag(args, "--threads")? {
                spec.threads = Some(n);
            }
            let (result, out) = match int_flag(args, "--shards")? {
                Some(shards) => {
                    let dir = flag_value(args, "--out").map_or_else(
                        || PathBuf::from(format!("{}.partials", spec.name)),
                        PathBuf::from,
                    );
                    let exe = std::env::current_exe()
                        .map_err(|e| format!("cannot locate own executable: {e}"))?;
                    cmd_campaign_sharded(&exe, &path, &spec, shards, &dir)?
                }
                None => cmd_campaign_result(&spec)?,
            };
            match flag_value(args, "--json") {
                Some(json_path) => {
                    let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
                    std::fs::write(&json_path, json + "\n")
                        .map_err(|e| format!("{json_path}: {e}"))?;
                    Ok(format!("{out}\nwrote campaign result to {json_path}\n"))
                }
                None => Ok(out),
            }
        }
        Some("shard") => {
            let path = positional(args, &["--index", "--of", "--out", "--threads"])
                .ok_or("shard needs a campaign spec file")?;
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut spec = CampaignSpec::from_json(&text)?;
            if let Some(n) = int_flag(args, "--threads")? {
                spec.threads = Some(n);
            }
            let index = int_flag(args, "--index")?.ok_or("shard needs --index")?;
            let of = int_flag(args, "--of")?.ok_or("shard needs --of")?;
            let dir = flag_value(args, "--out").map_or_else(
                || PathBuf::from(format!("{}.partials", spec.name)),
                PathBuf::from,
            );
            cmd_shard(&spec, index, of, &dir)
        }
        Some("merge") => {
            let dir =
                positional(args, &["-o", "--output"]).ok_or("merge needs a partials directory")?;
            let (result, out) = cmd_merge(std::path::Path::new(&dir))?;
            match flag_value(args, "-o").or_else(|| flag_value(args, "--output")) {
                Some(json_path) => {
                    let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
                    std::fs::write(&json_path, json + "\n")
                        .map_err(|e| format!("{json_path}: {e}"))?;
                    Ok(format!(
                        "{out}\nwrote merged campaign result to {json_path}\n"
                    ))
                }
                None => Ok(out),
            }
        }
        Some("trace") => {
            let capacity = int_flag(args, "--capacity")?.unwrap_or(65_536);
            if capacity == 0 {
                return Err("--capacity must be at least 1".into());
            }
            let (jsonl, summary) = match flag_value(args, "--journal") {
                Some(journal) => cmd_trace_journal(std::path::Path::new(&journal), capacity)?,
                None => {
                    let path = positional(args, &["--policy", "--capacity", "-o", "--output"])
                        .ok_or("trace needs a scenario file or --journal FILE")?;
                    let scenario = load(&path)?;
                    let policy = flag_value(args, "--policy")
                        .ok_or("trace needs --policy (or --journal)")?;
                    cmd_trace_scenario(&scenario, &policy, capacity)?
                }
            };
            match flag_value(args, "-o").or_else(|| flag_value(args, "--output")) {
                Some(out_path) => {
                    std::fs::write(&out_path, &jsonl).map_err(|e| format!("{out_path}: {e}"))?;
                    Ok(format!(
                        "{summary}wrote {} trace line(s) to {out_path}\n",
                        jsonl.lines().count()
                    ))
                }
                None => {
                    // JSONL on stdout, summary on stderr: the stream
                    // stays machine-parseable when piped.
                    eprint!("{summary}");
                    Ok(jsonl)
                }
            }
        }
        Some("serve") => cmd_serve(args),
        Some("repro") => cmd_repro(args),
        Some("--help") | Some("-h") | None => Ok(USAGE.to_string()),
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

/// `iosched repro [<target>|all] [--runs N]`: render the paper's
/// figures and tables (see [`iosched_bench::repro`]).
fn cmd_repro(args: &[String]) -> Result<String, String> {
    let mut target = None;
    let mut runs = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--runs" => {
                let n = rest.next().ok_or("--runs needs a count")?;
                let n = n
                    .parse::<NonZeroUsize>()
                    .map_err(|_| format!("bad --runs value '{n}' (expected a positive integer)"))?;
                runs = Some(n);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown repro flag '{flag}'")),
            name if target.is_none() => target = Some(name),
            extra => return Err(format!("unexpected repro argument '{extra}'")),
        }
    }
    iosched_bench::repro::run(target, runs)
}

/// `iosched serve`: the scheduler daemon (and its `--replay` verifier
/// and `--connect` client). The daemon writes all protocol output
/// itself (flushed per line); this function returns text only for the
/// replay and error paths.
fn cmd_serve(args: &[String]) -> Result<String, String> {
    // Client mode: pipe stdin to a running daemon's socket.
    if let Some(socket) = flag_value(args, "--connect") {
        iosched_serve::connect(std::path::Path::new(&socket))?;
        return Ok(String::new());
    }
    let journal = flag_value(args, "--journal").ok_or("serve needs --journal FILE")?;
    // Batch mode: replay a journal through `simulate_stream` and print
    // the `{\"final\":…}` line a live session would have produced.
    if has_flag(args, "--replay") {
        return iosched_serve::replay(std::path::Path::new(&journal)).map(|line| line + "\n");
    }
    let platform = flag_value(args, "--platform").ok_or("serve needs --platform")?;
    let policy = flag_value(args, "--policy").ok_or("serve needs --policy")?;
    let accel: f64 = flag_value(args, "--accelerate")
        .map(|s| {
            s.parse()
                .map_err(|_| format!("bad --accelerate value '{s}'"))
        })
        .transpose()?
        .unwrap_or(0.0);
    let config = iosched_sim::SimConfig {
        // The live feed (`telemetry --follow`) is a serve feature;
        // turning the series on never changes simulated results.
        telemetry: true,
        ..iosched_sim::SimConfig::default()
    };
    let spec = iosched_serve::ServeSpec {
        platform: iosched_cli::platform_by_name(&platform)?,
        policy: iosched_core::registry::PolicyFactory::parse(&policy)?,
        accel,
        config,
    };
    let opts = iosched_serve::DaemonOptions {
        journal: PathBuf::from(journal),
        socket: flag_value(args, "--socket").map(PathBuf::from),
    };
    iosched_serve::run_daemon(&spec, &opts)?;
    Ok(String::new())
}

fn load(path: &str) -> Result<ScenarioFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ScenarioFile::from_json(&text)
}

/// Parse a `--external-load PERIOD,BUSY,FRACTION` triple (seconds,
/// seconds, fraction of B) into the §7 square wave.
fn parse_external_load(s: &str) -> Result<iosched_sim::ExternalLoad, String> {
    let parts: Vec<&str> = s.split(',').collect();
    let [period, busy, fraction] = parts.as_slice() else {
        return Err(format!(
            "bad external load '{s}' (expected PERIOD,BUSY,FRACTION, e.g. 240,90,0.7)"
        ));
    };
    let num = |v: &str| -> Result<f64, String> {
        v.trim()
            .parse::<f64>()
            .map_err(|_| format!("bad external load component '{v}'"))
    };
    let load = iosched_sim::ExternalLoad {
        period: iosched_model::Time::secs(num(period)?),
        busy: iosched_model::Time::secs(num(busy)?),
        fraction: num(fraction)?,
    };
    load.validate().map_err(|e| e.to_string())?;
    Ok(load)
}

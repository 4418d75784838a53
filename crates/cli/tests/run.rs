//! `iosched run` end to end: generated scenarios run under one policy or
//! the whole roster, `-o` and `--trace` write parseable exports, a serve
//! journal replays, and hostile inputs exit 1 with an `error: …` line
//! instead of a panic. The retired run-style commands are unknown, and
//! a flag the chosen mode never reads (`campaign --out` without
//! `--shards`, daemon flags on `serve --replay` or `serve --connect`) is
//! an error, not silently ignored.

use iosched_cli::RunRecord;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_iosched");

fn iosched(args: &[&str]) -> Output {
    Command::new(EXE).args(args).output().expect("iosched runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iosched-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn write(name: &str, text: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, text).expect("write scenario");
    path
}

fn s(path: &Path) -> &str {
    path.to_str().expect("utf8 temp path")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// `iosched generate --kind congested --platform vesta --seed 7` into a
/// temp file.
fn generated(name: &str) -> PathBuf {
    let path = tmp(name);
    stdout(&iosched(&[
        "generate",
        "--kind",
        "congested",
        "--platform",
        "vesta",
        "--seed",
        "7",
        "-o",
        s(&path),
    ]));
    path
}

/// Assert a clean failure: exit 1, an `error: …` line naming `needle`,
/// no panic and nothing on stdout.
fn assert_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{needle}: {stderr}");
    assert!(stderr.starts_with("error: "), "{needle}: {stderr}");
    assert!(stderr.contains(needle), "missing '{needle}' in: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "{needle}: printed {:?}", out.stdout);
}

/// A scenario spec around an inline workload and config.
fn spec(platform: &str, workload: &str, config: &str) -> String {
    format!(
        r#"{{"label": "t", "platform": {platform}, "workload": {workload},
             "policy": "fairshare", "config": {config}}}"#
    )
}

/// One periodic application as `AppSpec` JSON.
fn app(id: usize, release: f64, procs: u64, work: f64, vol_gib: f64) -> String {
    format!(
        r#"{{"id": {id}, "release": {release:?}, "procs": {procs},
             "pattern": {{"Periodic": {{"work": {work:?}, "vol": {:?}, "count": 1}}}}}}"#,
        vol_gib * (1u64 << 30) as f64
    )
}

#[test]
fn generated_scenario_runs_the_whole_roster() {
    let scenario = generated("roster.json");
    let text = stdout(&iosched(&["run", s(&scenario), "--policy", "all"]));
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("10 applications on vesta"), "{text}");
    let header = lines
        .iter()
        .position(|l| l.starts_with("policy"))
        .expect("table header");
    let rows = &lines[header + 1..];
    assert_eq!(rows.len(), 11, "10 policies + upper limit:\n{text}");
    assert!(rows[10].starts_with("upper limit"), "{text}");
    for name in ["roundrobin", "priority-maxsyseff", "fairshare", "fcfs"] {
        assert!(
            rows.iter()
                .any(|r| r.split_whitespace().next() == Some(name)),
            "missing {name}:\n{text}"
        );
    }
}

#[test]
fn records_parse_back() {
    let scenario = generated("records.json");
    let out = tmp("records.out.json");
    let text = stdout(&iosched(&[
        "run",
        s(&scenario),
        "--policy",
        "all",
        "-o",
        s(&out),
    ]));
    assert!(text.ends_with(&format!("wrote 10 run record(s) to {}\n", s(&out))));
    let records: Vec<RunRecord> =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(records.len(), 10);
    assert!(records
        .iter()
        .all(|r| r.workload == "explicit(10 apps)" && r.events > 0 && r.end_secs > 0.0));
    assert!(records
        .iter()
        .all(|r| r.steady.is_none() && r.telemetry.is_none()));
}

#[test]
fn trace_writes_jsonl_from_seq_0() {
    let scenario = generated("trace.json");
    let trace = tmp("trace.jsonl");
    let text = stdout(&iosched(&[
        "run",
        s(&scenario),
        "--policy",
        "mindilation",
        "--trace",
        s(&trace),
    ]));
    assert!(text.contains("traced 10 applications on vesta under mindilation"));
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    assert!(jsonl.starts_with(r#"{"seq":0,"#), "{jsonl}");
    assert!(jsonl.lines().all(|l| l.contains(r#""kind":""#)));
    // One trace records one run.
    assert_error(
        &iosched(&["run", s(&scenario), "--policy", "all", "--trace", s(&trace)]),
        "--trace",
    );
}

/// Run a frozen-clock daemon over two submissions and a shutdown into
/// a fresh journal; return the journal and the daemon's last stdout
/// line (its `{"final":…}` report).
fn frozen_daemon_journal(name: &str) -> (PathBuf, String) {
    use std::io::Write as _;
    let journal = tmp(name);
    let mut daemon = Command::new(EXE)
        .args(["serve", "--platform", "intrepid", "--policy", "maxsyseff"])
        .args(["--journal", s(&journal)])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    {
        let stdin = daemon.stdin.as_mut().unwrap();
        for line in [
            r#"{"cmd":"submit","procs":256,"work":60,"vol":512,"count":2,"release":300}"#,
            r#"{"cmd":"submit","procs":512,"work":45,"vol":384,"count":3,"release":600}"#,
            r#"{"cmd":"shutdown"}"#,
        ] {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let live = String::from_utf8(daemon.wait_with_output().unwrap().stdout).unwrap();
    let last = live.lines().last().expect("final line").to_string();
    (journal, last)
}

#[test]
fn journal_replays_a_frozen_clock_daemon() {
    let (journal, last) = frozen_daemon_journal("journal.jsonl");
    let live_final: serde::Value = serde_json::from_str(&last).unwrap();
    let live_final = serde::map_get(live_final.as_map().unwrap(), "final")
        .as_map()
        .expect("a {\"final\":…} line");
    let field = |key| serde::map_get(live_final, key).as_f64();

    let trace = tmp("journal-trace.jsonl");
    let records = tmp("journal-records.json");
    let text = stdout(&iosched(&[
        "run",
        "--journal",
        s(&journal),
        "--trace",
        s(&trace),
        "-o",
        s(&records),
    ]));
    assert!(text.starts_with("2 arrivals from journal"), "{text}");
    assert!(text.contains("\nmaxsyseff "), "{text}");
    let records: Vec<RunRecord> =
        serde_json::from_str(&std::fs::read_to_string(&records).unwrap()).unwrap();
    let [record] = records.as_slice() else {
        panic!("one journal, one record");
    };
    assert_eq!(record.policy, "maxsyseff");
    assert_eq!(field("events"), Some(record.events as f64));
    assert_eq!(field("end_secs"), Some(record.end_secs));
    assert_eq!(record.steady.as_ref().map(|s| s.admitted), Some(2));
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    assert!(jsonl.contains(r#""kind":"admission""#), "{jsonl}");
}

#[test]
fn starving_periodic_schedule_is_a_labeled_error() {
    // Two pure-I/O hogs each need the whole PFS for the single candidate
    // period (tmax = 1): the second cannot be placed.
    let platform = r#"{"name": "t", "procs": 1000, "proc_bw": 10737418.24,
                       "total_bw": 536870912, "burst_buffer": null,
                       "interference": "None"}"#;
    let workload = format!(
        r#"{{"Explicit": [{}, {}, {}]}}"#,
        app(0, 0.0, 50, 1_000.0, 0.1),
        app(1, 0.0, 50, 0.0, 500.0),
        app(2, 0.0, 50, 0.0, 500.0),
    );
    let scenario = write("starving.json", &spec(platform, &workload, "null"));
    let out = iosched(&["run", s(&scenario), "--policy", "periodic:throu:tmax=1"]);
    assert_error(&out, "periodic:throu");
    assert_error(&out, "starves");
}

#[test]
fn hostile_inputs_exit_1_with_an_error() {
    let generated = std::fs::read_to_string(generated("hostile.json")).unwrap();
    let with_config = |config: &str| generated.replace(r#""config": null"#, config);
    let vesta_app = format!(r#"{{"Explicit": [{}]}}"#, app(0, 0.0, 256, 60.0, 100.0));
    let bare_file = format!(
        r#"{{"platform": {{"name": "vesta", "procs": 2048, "proc_bw": 53687091.2,
             "total_bw": 10737418240, "burst_buffer": null, "interference": "None"}},
             "apps": [{}]}}"#,
        app(0, 0.0, 256, 60.0, 100.0)
    );
    for (name, text, needle) in [
        (
            "malformed.json",
            r#"{"label": "x", "platform""#.to_string(),
            "scenario spec",
        ),
        ("old-format.json", bare_file, "\"workload\""),
        (
            "unknown-field.json",
            with_config(r#""config": {"burst": true}"#),
            "unknown SimConfig field 'burst'",
        ),
        (
            "no-buffer.json",
            with_config(r#""config": {"use_burst_buffer": true}"#),
            "use_burst_buffer requires a platform burst buffer",
        ),
        (
            "storm-and-buffer.json",
            spec(
                r#""native:vesta""#,
                &vesta_app,
                r#"{"use_burst_buffer": true,
                    "external_load": {"period": 240.0, "busy": 90.0, "fraction": 0.7}}"#,
            ),
            "mutually exclusive",
        ),
        (
            "negative-warmup.json",
            with_config(r#""config": {"warmup": -5.0}"#),
            "warmup",
        ),
    ] {
        let scenario = write(name, &text);
        assert_error(&iosched(&["run", s(&scenario)]), needle);
    }
    let scenario = write("ok.json", &generated);
    assert_error(
        &iosched(&["run", "--journal", s(&scenario), "--policy", "fairshare"]),
        "--policy",
    );
    assert_error(
        &iosched(&["periodic", s(&scenario), "--epsilon", "NaN"]),
        "eps NaN",
    );
    assert_error(
        &iosched(&["run", s(&scenario), "--burst-buffer"]),
        "unknown run flag '--burst-buffer'",
    );
}

/// A count of 2^53, the largest integer a JSON number carries exactly,
/// on one line of input is refused before anything is sized by it: an
/// application's instance count in a scenario file or a journal
/// arrival, a mix's application count, a Darshan log's job count.
#[test]
fn a_huge_count_is_an_error_not_an_abort() {
    const HUGE: &str = "9007199254740992";
    let workload = format!(r#"{{"Explicit": [{}]}}"#, app(0, 0.0, 256, 60.0, 100.0))
        .replace(r#""count": 1"#, &format!(r#""count": {HUGE}"#));
    let scenario = write("huge-count.json", &spec(r#""vesta""#, &workload, "null"));
    assert_error(
        &iosched(&["run", s(&scenario)]),
        "more than the 10000000 allowed",
    );

    let (journal, _) = frozen_daemon_journal("huge-count-journal.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.contains(r#""count":2"#), "{text}");
    let hostile = write(
        "huge-count-hostile.jsonl",
        &text.replace(r#""count":2"#, &format!(r#""count":{HUGE}"#)),
    );
    assert_error(
        &iosched(&["serve", "--replay", "--journal", s(&hostile)]),
        "more than the 10000000 allowed",
    );

    let mix = format!(
        r#"{{"Mix": {{"config": {{"small": {HUGE}, "large": 0, "very_large": 0,
             "io_ratio": 0.2, "work_range": [100, 400], "instances": [8, 12],
             "release_jitter": 1}}, "seed": 0}}}}"#
    );
    let darshan = format!(
        r#"{{"Darshan": {{"jobs": {HUGE}, "log_seed": 0, "window_start": 0,
             "window_secs": 1000, "coverage": 0.5, "seed": 0}}}}"#
    );
    for (name, workload, needle) in [
        ("huge-mix.json", mix, "only 2048 processors"),
        (
            "huge-darshan.json",
            darshan,
            "more than the 1000000 allowed",
        ),
    ] {
        let campaign = write(
            name,
            &format!(
                r#"{{"name": "huge", "platforms": ["vesta"], "workloads": [{workload}],
                     "policies": ["fairshare"], "seeds": [0], "config": null,
                     "threads": null}}"#
            ),
        );
        assert_error(&iosched(&["campaign", s(&campaign)]), needle);
    }
}

#[test]
fn far_future_release_finishes() {
    let workload = format!(r#"{{"Explicit": [{}]}}"#, app(0, 1e308, 256, 60.0, 100.0));
    let scenario = write("far-future.json", &spec(r#""vesta""#, &workload, "null"));
    let text = stdout(&iosched(&["run", s(&scenario)]));
    assert!(text.contains("\nfairshare "), "{text}");
}

#[test]
fn retired_commands_are_unknown() {
    let scenario = generated("retired.json");
    for command in ["simulate", "telemetry", "stream", "trace"] {
        assert_error(
            &iosched(&[command, s(&scenario), "--policy", "fairshare"]),
            &format!("unknown command '{command}'"),
        );
    }
}

#[test]
fn argument_typos_exit_1_with_an_error() {
    let scenario = generated("typos.json");
    let campaign = write(
        "typos-campaign.json",
        r#"{"name": "typos", "platforms": ["vesta"],
            "workloads": [{"Congestion": {"seed": 0}}],
            "policies": ["fairshare"], "seeds": [0],
            "config": null, "threads": null}"#,
    );
    let seed_typo = tmp("typo-seed.json");
    for (args, needle) in [
        (
            vec![
                "generate",
                "--kind",
                "congested",
                "--platform",
                "vesta",
                "--sed",
                "7",
                "-o",
                s(&seed_typo),
            ],
            "unknown generate flag '--sed'",
        ),
        (
            vec!["periodic", s(&scenario), "--objectve", "syseff"],
            "unknown periodic flag '--objectve'",
        ),
        (
            vec!["periodic", s(&scenario), "--epsilon"],
            "--epsilon needs a value",
        ),
        (
            vec!["campaign", s(&campaign), "--thread", "2"],
            "unknown campaign flag '--thread'",
        ),
        (
            vec!["run", s(&scenario), "--policy", "fcfs", "--policy", "all"],
            "--policy given twice",
        ),
        (vec!["merge", "a", "b"], "unexpected merge argument 'b'"),
        (
            vec!["platforms", "vesta"],
            "unexpected platforms argument 'vesta'",
        ),
        (
            vec!["serve", "--replay", "--journal"],
            "--journal needs a value",
        ),
    ] {
        assert_error(&iosched(&args), needle);
    }
    assert!(!seed_typo.exists(), "a rejected generate wrote its file");
}

/// `campaign --out` names the partials directory of a `--shards` run;
/// without `--shards` nothing would be written there.
#[test]
fn campaign_out_without_shards_is_an_error() {
    let campaign = write(
        "unsharded-campaign.json",
        r#"{"name": "unsharded", "platforms": ["vesta"],
            "workloads": [{"Congestion": {"seed": 0}}],
            "policies": ["fairshare"], "seeds": [0],
            "config": null, "threads": null}"#,
    );
    let out = tmp("unsharded-partials");
    assert_error(
        &iosched(&["campaign", s(&campaign), "--out", s(&out)]),
        "--out names the partials directory of a --shards run; add --shards N or drop --out",
    );
    assert!(!out.exists(), "a rejected campaign created its --out");
}

/// `serve --replay` re-runs the journal under the recipe in its
/// manifest: the daemon's platform, policy, socket and clock flags
/// would be ignored, so each is an error. The bare replay still prints
/// the live session's final line.
#[test]
fn serve_replay_rejects_the_daemon_flags() {
    let (journal, live_final) = frozen_daemon_journal("replay-flags.jsonl");
    let socket = tmp("replay-flags.sock");
    for flag in [
        ["--platform", "mira"],
        ["--policy", "fcfs"],
        ["--socket", s(&socket)],
        ["--accelerate", "1000"],
    ] {
        let mut args = vec!["serve", "--replay", "--journal", s(&journal)];
        args.extend(flag);
        assert_error(
            &iosched(&args),
            &format!(
                "serve --replay re-runs the journal under its own recipe and serves nothing; \
                 drop {}",
                flag[0]
            ),
        );
    }
    assert!(!socket.exists(), "a rejected replay bound its --socket");
    let replayed = stdout(&iosched(&["serve", "--replay", "--journal", s(&journal)]));
    assert_eq!(replayed, live_final + "\n");
}

/// `serve --connect` only pipes stdin to a running daemon, so every
/// other serve flag is an error. The daemon launch with a socket still
/// parses: it gets as far as binding its socket.
#[test]
fn serve_connect_rejects_every_other_flag() {
    let socket = tmp("connect-flags.sock");
    let journal = tmp("connect-flags.jsonl");
    for flag in [
        vec!["--journal", s(&journal)],
        vec!["--platform", "intrepid"],
        vec!["--policy", "maxsyseff"],
        vec!["--socket", s(&socket)],
        vec!["--accelerate", "1000"],
        vec!["--replay"],
    ] {
        let mut args = vec!["serve", "--connect", s(&socket)];
        args.extend(&flag);
        assert_error(
            &iosched(&args),
            &format!(
                "serve --connect only pipes stdin to a running daemon; drop {}",
                flag[0]
            ),
        );
    }
    assert!(!journal.exists(), "a rejected client created a journal");
    let unbindable = tmp("no-such-dir").join("d.sock");
    assert_error(
        &iosched(&[
            "serve",
            "--platform",
            "intrepid",
            "--policy",
            "maxsyseff",
            "--journal",
            s(&journal),
            "--socket",
            s(&unbindable),
        ]),
        s(&unbindable),
    );
}

//! Kill-and-resume for the serve daemon: SIGKILL a live `iosched serve`
//! mid-submission-stream, resume from its journal, feed the remaining
//! submissions, and the `{"final":…}` line is **byte-identical** to an
//! uninterrupted session over the same roster — and to `iosched serve
//! --replay` over the finished journal. This is the checkpoint
//! guarantee of the subsystem: the write-ahead arrival journal IS the
//! checkpoint, valid at every instant, no signal handler involved.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_iosched");

/// The submission roster: explicit releases (so no wall clock leaks
/// into the trajectory) under the frozen-clock default (`--accelerate`
/// omitted = 0).
fn roster() -> Vec<String> {
    (0..8)
        .map(|k| {
            format!(
                r#"{{"cmd":"submit","procs":{},"work":{},"vol":{},"count":{},"release":{}}}"#,
                128 << (k % 3),
                40.0 + 7.5 * k as f64,
                256.0 + 128.0 * k as f64,
                2 + k % 3,
                300 * (k + 1),
            )
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iosched-serve-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn spawn_daemon(journal: &Path) -> Child {
    Command::new(EXE)
        .args([
            "serve",
            "--platform",
            "intrepid",
            "--policy",
            "maxsyseff",
            "--journal",
        ])
        .arg(journal)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns")
}

/// Run a daemon session to completion: submit `lines`, send `shutdown`,
/// return the last stdout line (the `{"final":…}` report).
fn session_final(journal: &Path, lines: &[String]) -> String {
    let mut child = spawn_daemon(journal);
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        for line in lines {
            writeln!(stdin, "{line}").expect("write submission");
        }
        writeln!(stdin, r#"{{"cmd":"shutdown"}}"#).expect("write shutdown");
    }
    let out = child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "daemon failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let last = stdout
        .lines()
        .last()
        .expect("at least one line")
        .to_string();
    assert!(last.starts_with(r#"{"final":"#), "no final line: {stdout}");
    last
}

/// Newline-terminated `{"arrival":…}` lines currently in the journal.
fn journal_arrivals(path: &Path) -> usize {
    std::fs::read_to_string(path).map_or(0, |text| {
        text.lines()
            .filter(|l| l.starts_with(r#"{"arrival":"#) && text.contains('\n'))
            .count()
    })
}

#[test]
fn sigkilled_daemon_resumes_bit_identically() {
    let roster = roster();

    // Baseline: one uninterrupted session over the full roster.
    let baseline_journal = tmp("baseline.jsonl");
    let baseline = session_final(&baseline_journal, &roster);

    // Interrupted run: submit the first 5, then SIGKILL the daemon the
    // moment the 5th arrival is journaled — no drain, no warning, no
    // graceful anything.
    let journal = tmp("killed.jsonl");
    let mut child = spawn_daemon(&journal);
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        for line in &roster[..5] {
            writeln!(stdin, "{line}").expect("write submission");
        }
        stdin.flush().expect("flush submissions");
        let deadline = Instant::now() + Duration::from_secs(30);
        while journal_arrivals(&journal) < 5 {
            assert!(
                Instant::now() < deadline,
                "daemon never journaled 5 arrivals (got {})",
                journal_arrivals(&journal)
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        child.kill().expect("SIGKILL");
    }
    let _ = child.wait();

    // The journal decides what survived (the kill races acknowledgement,
    // so "how many" is whatever made it to disk — that is the point).
    let survived = journal_arrivals(&journal);
    assert!(
        (5..=5).contains(&survived),
        "expected exactly the 5 flushed arrivals, found {survived}"
    );

    // Resume from the journal and submit the rest of the roster.
    let resumed = session_final(&journal, &roster[survived..]);
    assert_eq!(
        resumed, baseline,
        "resumed final line differs from the uninterrupted baseline"
    );

    // And the batch replay of the finished journal agrees byte-for-byte.
    let replay = Command::new(EXE)
        .args(["serve", "--replay", "--journal"])
        .arg(&journal)
        .output()
        .expect("replay runs");
    assert!(replay.status.success());
    let replay_line = String::from_utf8(replay.stdout).expect("utf8");
    assert_eq!(replay_line.trim_end(), baseline);
}

/// A drained (graceful) session resumes just as bit-identically as a
/// SIGKILLed one, and the drain acknowledgement reports the checkpoint.
#[test]
fn drained_daemon_resumes_bit_identically() {
    let roster = roster();
    let baseline = session_final(&tmp("drain-baseline.jsonl"), &roster);

    let journal = tmp("drained.jsonl");
    let mut child = spawn_daemon(&journal);
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        for line in &roster[..3] {
            writeln!(stdin, "{line}").expect("write submission");
        }
        writeln!(stdin, r#"{{"cmd":"drain"}}"#).expect("write drain");
    }
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let drain_ack = stdout.lines().last().expect("drain ack");
    assert!(
        drain_ack.starts_with(r#"{"ok":"drain","arrivals":3"#),
        "unexpected drain ack: {drain_ack}"
    );

    let resumed = session_final(&journal, &roster[3..]);
    assert_eq!(resumed, baseline);
}

/// Malformed protocol lines anywhere in the stream are answered with
/// errors and change nothing: the final line still matches the
/// baseline (daemon-level twin of the in-process fuzz suite).
#[test]
fn malformed_lines_leave_the_trajectory_untouched() {
    let roster = roster();
    let baseline = session_final(&tmp("noise-baseline.jsonl"), &roster);

    let mut noisy: Vec<String> = Vec::new();
    for (k, line) in roster.iter().enumerate() {
        noisy.push(format!("garbage #{k}"));
        noisy.push(r#"{"cmd":"submit","procs":0,"work":1,"vol":1}"#.into());
        noisy.push(line.clone());
        noisy.push(r#"{"cmd":"status"}"#.into());
    }
    let final_line = session_final(&tmp("noise.jsonl"), &noisy);
    assert_eq!(final_line, baseline);
}

/// A running clock waits out a far-future release: at real time, the
/// wall wait until 1e22 virtual seconds does not fit a `Duration`, and
/// the daemon must saturate it (then heed the heartbeat) rather than
/// panic while converting it.
#[test]
fn far_future_release_under_a_running_clock_shuts_down_cleanly() {
    let journal = tmp("far-future.jsonl");
    let mut child = Command::new(EXE)
        .args([
            "serve",
            "--platform",
            "intrepid",
            "--policy",
            "maxsyseff",
            "--accelerate",
            "1",
            "--journal",
        ])
        .arg(&journal)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        writeln!(
            stdin,
            r#"{{"cmd":"submit","procs":256,"work":60,"vol":512,"count":2,"release":1e22}}"#
        )
        .expect("write submission");
        writeln!(stdin, r#"{{"cmd":"shutdown"}}"#).expect("write shutdown");
    }
    let out = child.wait_with_output().expect("daemon exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "daemon failed:\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with(r#"{"final":"#), "no final line: {stdout}");
}

//! Protocol and journal robustness: no line of input — random bytes,
//! mutated valid requests, structurally valid but semantically absurd
//! submissions — may ever panic the parser or kill a session. Malformed
//! lines must come back as actionable errors; the daemon answers and
//! lives on. A damaged journal — one byte replaced, or random line soup
//! spliced in after its manifest — loads or is refused with the file
//! named, and what loads opens a session or is refused, never a panic.

use iosched_core::registry::PolicyFactory;
use iosched_model::{AppSpec, Bytes, Instance, InstancePattern, Platform, Time};
use iosched_serve::journal::{Journal, ServeSpec};
use iosched_serve::protocol::parse_request;
use iosched_serve::session::Session;
use iosched_sim::{SimConfig, Simulation};
use iosched_workload::AppSubmission;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const TEMPLATES: &[&str] = &[
    r#"{"cmd":"submit","procs":100,"work":8.0,"vol":20.0,"count":3}"#,
    r#"{"cmd":"submit","procs":64,"instances":[[10.0,5.0],[0.0,2.5]],"release":3600}"#,
    r#"{"cmd":"status"}"#,
    r#"{"cmd":"telemetry","follow":true}"#,
    r#"{"cmd":"metrics"}"#,
    r#"{"cmd":"checkpoint"}"#,
    r#"{"cmd":"drain"}"#,
    r#"{"cmd":"shutdown"}"#,
];

proptest! {
    /// Arbitrary byte soup: the parser returns a non-empty, printable
    /// error (or a valid request) — it never panics.
    #[test]
    fn random_bytes_never_panic_the_parser(bytes in prop::collection::vec(0u64..256, 0..120)) {
        let raw: Vec<u8> = bytes.iter().map(|b| *b as u8).collect();
        let line = String::from_utf8_lossy(&raw);
        if let Err(e) = parse_request(&line) {
            prop_assert!(!e.is_empty());
        }
    }

    /// Single-byte mutations of valid requests: every outcome is a
    /// clean parse or a clean error.
    #[test]
    fn mutated_valid_lines_never_panic_the_parser(
        template in 0usize..TEMPLATES.len(),
        pos in 0u64..200,
        replacement in 0u64..256,
    ) {
        let mut raw = TEMPLATES[template].as_bytes().to_vec();
        let pos = (pos as usize) % raw.len();
        raw[pos] = replacement as u8;
        let line = String::from_utf8_lossy(&raw);
        if let Err(e) = parse_request(&line) {
            prop_assert!(!e.is_empty());
        }
    }

    /// Structurally valid submits with hostile numerics parse or are
    /// rejected with the offending field named — and an accepted parse
    /// always yields a submission the engine can validate (no panics
    /// downstream either).
    #[test]
    fn hostile_submit_numerics_parse_or_name_the_field(
        procs in -3.0f64..1e7,
        work in -1.0f64..1e6,
        vol in -1.0f64..1e6,
        count in -2.0f64..40.0,
        scale in 0u64..7,
    ) {
        // Push values through extreme magnitudes, including NaN/inf.
        let warp = |x: f64| match scale {
            0 => x,
            1 => x * 1e300,
            2 => x * 1e-300,
            3 => x / 0.0,
            4 => f64::NAN,
            5 => -x,
            _ => x.fract(),
        };
        let line = format!(
            r#"{{"cmd":"submit","procs":{},"work":{},"vol":{},"count":{}}}"#,
            warp(procs), warp(work), warp(vol), warp(count),
        );
        // `format!` can print NaN/inf spellings that are not JSON; both
        // a parse error and a field rejection are fine, a panic is not.
        match parse_request(&line) {
            Ok(req) => {
                let iosched_serve::protocol::Request::Submit { submission, .. } = req else {
                    return Err(TestCaseError::fail("submit parsed as something else"));
                };
                let app = submission.into_app(0, Time::secs(1.0));
                let _ = app.validate();
            }
            Err(e) => prop_assert!(!e.is_empty(), "empty error for {line}"),
        }
    }
}

/// Whole lines the soup draws from: arrivals and drain markers, valid
/// and absurd, and objects that are neither.
const SOUP_LINES: &[&str] = &[
    r#"{"arrival":{"id":0,"release":10,"procs":128,"pattern":{"Periodic":{"work":10,"vol":1e9,"count":2}}}}"#,
    r#"{"arrival":{"id":2,"release":60,"procs":128,"pattern":{"Periodic":{"work":10,"vol":1e9,"count":2}}}}"#,
    r#"{"arrival":{"id":0,"release":5,"procs":64,"pattern":{"Explicit":[{"work":1,"vol":0},{"work":0,"vol":4096}]}}}"#,
    r#"{"arrival":{"id":0,"release":-1,"procs":0,"pattern":{"Explicit":[]}}}"#,
    r#"{"arrival":{"id":0,"release":1e308,"procs":99999999,"pattern":{"Periodic":{"work":1,"vol":1,"count":9007199254740992}}}}"#,
    r#"{"arrival":{"id":9,"release":7,"procs":1e30,"pattern":{"Periodic":{"work":1,"vol":1,"count":1}}}}"#,
    r#"{"arrival":{"id":0}}"#,
    r#"{"arrival":null}"#,
    r#"{"drain":{"virtual_secs":80,"arrivals":2}}"#,
    r#"{"drain":{"virtual_secs":"inf"}}"#,
    r#"{"drain":{"arrivals":1}}"#,
    r#"{"drain":7}"#,
    r#"{"serve":{"version":1}}"#,
    "{}",
    "[]",
    "",
];

/// Fragments a line of junk is drawn from: JSON punctuation, the
/// journal's own keys, hostile numbers and bytes that are not ASCII.
const SOUP_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "null",
    "true",
    "-",
    "0",
    "7",
    "2.5",
    "1e308",
    "1e999",
    "NaN",
    "\u{0}",
    "\u{feff}",
    "é",
    r#""serve""#,
    r#""arrival""#,
    r#""drain""#,
    r#""id""#,
    r#""release""#,
    r#""procs""#,
    r#""pattern""#,
    r#""Periodic""#,
    r#""Explicit""#,
    r#""work""#,
    r#""vol""#,
    r#""count""#,
    r#""virtual_secs""#,
];

/// The recipe the hostile journals are written under.
fn journal_spec() -> ServeSpec {
    ServeSpec {
        platform: Platform::intrepid(),
        policy: PolicyFactory::parse("maxsyseff").unwrap(),
        accel: 0.0,
        config: SimConfig::default(),
    }
}

fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iosched-fuzz-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A small valid journal written by the production writer — the
/// manifest, a `Periodic` and an `Explicit` arrival and a drain marker.
/// Returns its bytes and the length of its manifest line.
fn valid_journal(path: &Path) -> (Vec<u8>, usize) {
    let _ = std::fs::remove_file(path);
    let mut journal = Journal::create(path, &journal_spec()).unwrap();
    let manifest_end = usize::try_from(std::fs::metadata(path).unwrap().len()).unwrap();
    journal
        .append(&AppSpec::periodic(
            0,
            Time::secs(30.0),
            2_048,
            Time::secs(100.0),
            Bytes::gib(512.0),
            3,
        ))
        .unwrap();
    journal
        .append(&AppSpec::new(
            1,
            Time::secs(45.5),
            512,
            InstancePattern::Explicit(vec![
                Instance::new(Time::secs(60.0), Bytes::gib(128.0)),
                Instance::new(Time::ZERO, Bytes::gib(64.0)),
            ]),
        ))
        .unwrap();
    journal.mark_drain(50.0).unwrap();
    drop(journal);
    (std::fs::read(path).unwrap(), manifest_end)
}

/// Write `bytes` as a journal and load it the way a resume does: the
/// load returns `Ok` or an `Err` naming the file, and what loads opens a
/// session over a fresh engine or is refused — neither may panic.
fn resume_from(path: &Path, bytes: &[u8]) -> Result<(), TestCaseError> {
    std::fs::write(path, bytes).unwrap();
    let contents = match Journal::load(path) {
        Ok(contents) => contents,
        Err(e) => {
            prop_assert!(
                e.contains(&path.display().to_string()),
                "load error does not name the file: {e}"
            );
            return Ok(());
        }
    };
    let spec = &contents.spec;
    if spec.validate().is_err() {
        return Ok(());
    }
    let mut policy = spec.policy.build_online(&spec.platform).unwrap();
    let Ok(sim) = Simulation::open(&spec.platform, policy.as_mut(), &spec.config) else {
        return Ok(());
    };
    let writer = Journal::reopen(path, &contents).unwrap();
    let _ = Session::new(sim, writer, &contents.arrivals);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One byte of a valid journal replaced with a random value.
    #[test]
    fn a_replaced_journal_byte_never_panics_a_resume(
        pos in 0u64..1_000_000,
        replacement in 0u64..256,
    ) {
        let path = journal_path("replaced.jsonl");
        let (mut bytes, _) = valid_journal(&path);
        let pos = usize::try_from(pos).unwrap() % bytes.len();
        bytes[pos] = u8::try_from(replacement).unwrap();
        resume_from(&path, &bytes)?;
    }

    /// Random line soup spliced in right after the manifest line: each
    /// line is a whole line drawn from `SOUP_LINES` or junk drawn from
    /// `SOUP_TOKENS`, and the soup may end without its newline.
    #[test]
    fn line_soup_after_the_manifest_never_panics_a_resume(
        lines in prop::collection::vec(
            (
                any::<bool>(),
                0usize..SOUP_LINES.len(),
                prop::collection::vec(0usize..SOUP_TOKENS.len(), 0..8),
            ),
            1..6,
        ),
        torn in any::<bool>(),
    ) {
        let path = journal_path("soup.jsonl");
        let (bytes, manifest_end) = valid_journal(&path);
        let mut soup = String::new();
        for (whole, line, junk) in &lines {
            if *whole {
                soup.push_str(SOUP_LINES[*line]);
            } else {
                soup.extend(junk.iter().map(|&k| SOUP_TOKENS[k]));
            }
            soup.push('\n');
        }
        if torn {
            soup.pop();
        }
        let mut spliced = bytes[..manifest_end].to_vec();
        spliced.extend_from_slice(soup.as_bytes());
        spliced.extend_from_slice(&bytes[manifest_end..]);
        resume_from(&path, &spliced)?;
    }
}

/// A fixed corpus of nasty lines fed through a *live session*: every
/// one must be answered (error or acknowledgement) with the session
/// still accepting good submissions afterwards — the in-process
/// statement of "malformed input never kills the daemon".
#[test]
fn nasty_lines_never_kill_a_live_session() {
    let platform = Platform::intrepid();
    let policy = PolicyFactory::parse("maxsyseff").unwrap();
    let config = SimConfig::default();
    let spec = ServeSpec {
        platform: platform.clone(),
        policy,
        accel: 0.0,
        config: config.clone(),
    };
    let dir = std::env::temp_dir().join(format!("iosched-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fuzz.jsonl");
    let _ = std::fs::remove_file(&path);

    let mut policy = policy.build_online(&platform).unwrap();
    let sim = Simulation::open(&platform, policy.as_mut(), &config).unwrap();
    let journal = Journal::create(&path, &spec).unwrap();
    let mut session = Session::new(sim, journal, &[]).unwrap();

    let nasty = [
        "",
        "\u{0}\u{1}\u{2}",
        "{",
        "}{",
        "null",
        "true",
        "[[[[[[[[",
        r#"{"cmd":"submit"}"#,
        r#"{"cmd":"submit","procs":1e308,"work":1,"vol":1}"#,
        r#"{"cmd":"submit","procs":100,"work":-0.0,"vol":1e999}"#,
        r#"{"cmd":"submit","procs":100,"work":1,"vol":1,"release":0}"#,
        r#"{"cmd":"submit","procs":99999999,"work":1,"vol":1}"#,
        r#"{"cmd":"submit","procs":100,"work":1,"vol":1,"instances":[[1,1]]}"#,
        r#"{"cmd":"shutdown","force":true}"#,
        r#"{"cmd":"systemctl","unit":"iosched"}"#,
        r#"{"cmd":"submit","procs":100,"work":1,"vol":1,"count":99999999999999999999}"#,
    ];
    for line in nasty {
        if let Ok(iosched_serve::protocol::Request::Submit {
            submission,
            release,
        }) = parse_request(line)
        {
            // Semantically absurd but well-formed: the session may
            // accept or reject, never die.
            let _ = session.submit(submission, release, Time::ZERO);
        }
    }
    // The session still works.
    let good =
        AppSubmission::parse_json(r#"{"procs":128,"work":60.0,"vol":512.0,"count":3}"#).unwrap();
    session
        .submit(good, Some(Time::secs(30.0)), Time::ZERO)
        .unwrap()
        .unwrap();
    let (outcome, accepted) = session.finish().unwrap();
    assert!(accepted >= 1);
    assert_eq!(outcome.report.per_app.len(), accepted);
}

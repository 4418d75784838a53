//! The write-ahead arrival journal — the daemon's checkpoint.
//!
//! The engine's trajectory is a *pure function* of the accepted arrival
//! sequence once the platform, policy and config are fixed (see
//! `Simulation::offer`): replaying the same arrivals into a fresh engine
//! reproduces the run bit-for-bit. So the daemon's checkpoint is not a
//! serialization of in-flight engine state — it is the ordered journal
//! of accepted arrivals, written ahead of every acknowledgement, one
//! flushed line per arrival. That makes the checkpoint *always current*:
//! a SIGKILL at any instant loses at most the arrival whose acceptance
//! was never acknowledged, and restart needs no signal handler, no
//! atexit hook and no consistency repair — it re-offers the journal and
//! continues.
//!
//! ## File format (JSONL)
//!
//! ```text
//! {"serve":{"version":1,"platform":{…},"policy":"maxsyseff","accel":1000,"config":{…}}}
//! {"arrival":{"id":0,"release":3600,…}}
//! {"arrival":{"id":1,"release":3601.5,…}}
//! {"drain":{"virtual_secs":3700,"arrivals":2}}
//! ```
//!
//! The manifest line binds the journal to the exact engine recipe; a
//! resume refuses a journal recorded under a different one. `drain`
//! lines are informational markers (they advance the resumed virtual
//! clock past everything already served); arrivals after a drain line
//! are legal — they belong to a later pass of the same journal.
//!
//! The framing is the one the shard partials of the campaign layer use
//! ([`iosched_model::append_log`]): a record is a line ending in `\n`.
//! A crash mid-`write` can leave a torn tail (the bytes after the last
//! `\n`): [`Journal::load`] drops it and [`Journal::reopen`] truncates
//! it, so the next acknowledged arrival starts on a line boundary. A
//! whole line that does not parse is corruption, and the load refuses
//! to resume from it.

use iosched_core::registry::PolicyFactory;
use iosched_model::append_log;
use iosched_model::lossless::{float_from_value, float_to_value};
use iosched_model::{AppSpec, Platform};
use iosched_sim::SimConfig;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::path::{Path, PathBuf};

/// The engine recipe a journal is bound to: everything that — together
/// with the arrival sequence — determines the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// The simulated platform.
    pub platform: Platform,
    /// The (online) scheduling policy.
    pub policy: PolicyFactory,
    /// Virtual seconds per wall second (0 freezes the clock:
    /// admission-only mode, the run completes at shutdown).
    pub accel: f64,
    /// Engine configuration.
    pub config: SimConfig,
}

impl ServeSpec {
    /// Validate the recipe: buildable online policy, sane clock rate,
    /// engine-accepted config.
    pub fn validate(&self) -> Result<(), String> {
        self.platform.validate().map_err(|e| e.to_string())?;
        self.policy.build_online(&self.platform).map(drop)?;
        if !(self.accel.is_finite() && self.accel >= 0.0) {
            return Err(format!(
                "accelerate factor {} must be finite and non-negative \
                 (0 freezes the clock, 1 is real time)",
                self.accel
            ));
        }
        self.config.validate()?;
        if self.config.horizon.is_some() {
            return Err("a serve session cannot run under a horizon; \
                        drain or shut the daemon down instead"
                .into());
        }
        Ok(())
    }
}

impl Serialize for ServeSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("version".into(), 1usize.to_value()),
            ("platform".into(), self.platform.to_value()),
            ("policy".into(), self.policy.to_value()),
            ("accel".into(), float_to_value(self.accel)),
            ("config".into(), self.config.to_value()),
        ])
    }
}

impl Deserialize for ServeSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a serve manifest object"))?;
        let version =
            usize::from_value(serde::map_get(m, "version")).map_err(|e| e.at("version"))?;
        if version != 1 {
            return Err(serde::Error::custom(format!(
                "unsupported journal version {version} (this build reads version 1)"
            )));
        }
        Ok(Self {
            platform: Platform::from_value(serde::map_get(m, "platform"))
                .map_err(|e| e.at("platform"))?,
            policy: PolicyFactory::from_value(serde::map_get(m, "policy"))
                .map_err(|e| e.at("policy"))?,
            accel: float_from_value(serde::map_get(m, "accel")).map_err(|e| e.at("accel"))?,
            config: SimConfig::from_value(serde::map_get(m, "config"))
                .map_err(|e| e.at("config"))?,
        })
    }
}

/// What a journal scan recovered.
#[derive(Debug)]
pub struct JournalContents {
    /// The engine recipe from the manifest line.
    pub spec: ServeSpec,
    /// Every intact journaled arrival, in acceptance order.
    pub arrivals: Vec<AppSpec>,
    /// The largest drain marker's virtual clock (finite and
    /// non-negative), if any pass drained.
    pub drained_at_secs: Option<f64>,
}

/// Append-only journal writer. Every line is a single `write` followed
/// by `flush`, so a partial file is always a valid prefix.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    arrivals: usize,
}

impl Journal {
    /// Create a fresh journal, manifest line written immediately.
    /// Refuses to overwrite an existing file.
    pub fn create(path: &Path, spec: &ServeSpec) -> Result<Self, String> {
        let manifest = serde::Value::Map(vec![("serve".into(), spec.to_value())]);
        let line = serde_json::to_string(&manifest).map_err(|e| e.to_string())?;
        let file =
            append_log::create(path, line).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            arrivals: 0,
        })
    }

    /// Re-open an existing journal for appending after a
    /// [`Journal::load`], truncating the torn tail the load dropped.
    pub fn reopen(path: &Path, recovered: &JournalContents) -> Result<Self, String> {
        let file = append_log::reopen(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            arrivals: recovered.arrivals.len(),
        })
    }

    /// Arrivals written (or recovered) so far.
    #[must_use]
    pub fn arrivals(&self) -> usize {
        self.arrivals
    }

    /// The journal file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one accepted arrival — written and flushed *before* the
    /// daemon acknowledges the submission.
    pub fn append(&mut self, app: &AppSpec) -> Result<(), String> {
        let record = serde::Value::Map(vec![("arrival".into(), app.to_value())]);
        self.write_line(&record)?;
        self.arrivals += 1;
        Ok(())
    }

    /// Append a drain marker recording the virtual clock at drain time,
    /// so a resumed pass starts its clock past everything served.
    pub fn mark_drain(&mut self, virtual_secs: f64) -> Result<(), String> {
        let record = serde::Value::Map(vec![(
            "drain".into(),
            serde::Value::Map(vec![
                ("virtual_secs".into(), float_to_value(virtual_secs)),
                ("arrivals".into(), self.arrivals.to_value()),
            ]),
        )]);
        self.write_line(&record)
    }

    /// Force file-system durability (the `checkpoint` command).
    pub fn sync(&mut self) -> Result<(), String> {
        self.file
            .sync_all()
            .map_err(|e| format!("{}: {e}", self.path.display()))
    }

    fn write_line(&mut self, record: &serde::Value) -> Result<(), String> {
        let line = serde_json::to_string(record).map_err(|e| e.to_string())?;
        append_log::append(&mut self.file, line)
            .map_err(|e| format!("{}: {e}", self.path.display()))
    }

    /// Scan a journal: manifest, intact arrivals, drain markers. A torn
    /// tail (no final `\n`) is dropped. The load converts line by line:
    /// each line is parsed, turned into its arrival or drain marker and
    /// dropped before the next is parsed, so no more than one line's
    /// JSON tree is held at a time. It stops at the first damaged line
    /// in file order (one that does not parse, or is not a well-formed
    /// arrival or drain marker) and names it in the error.
    pub fn load(path: &Path) -> Result<JournalContents, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (lines, _torn) = append_log::split(&text);
        let mut parsed = lines.enumerate().map(|(k, line)| {
            let value = serde_json::parse(line).map_err(|e| {
                format!(
                    "{}: line {} is corrupt ({e}); refusing to resume from a damaged journal",
                    path.display(),
                    k + 1
                )
            })?;
            Ok::<_, String>((k + 1, value))
        });
        let Some(first) = parsed.next() else {
            return Err(format!(
                "{}: journal holds no intact manifest line",
                path.display()
            ));
        };
        let (_, first) = first?;
        let spec_value = first
            .as_map()
            .map(|m| serde::map_get(m, "serve"))
            .filter(|v| !matches!(v, serde::Value::Null))
            .ok_or_else(|| format!("{}: first line is not a serve manifest", path.display()))?;
        let spec = ServeSpec::from_value(spec_value)
            .map_err(|e| format!("{}: bad manifest: {e}", path.display()))?;
        let mut arrivals = Vec::new();
        let mut drained_at_secs: Option<f64> = None;
        for line in parsed {
            let (n, value) = line?;
            let m = value.as_map().unwrap_or(&[]);
            if let Some(app) = match serde::map_get(m, "arrival") {
                serde::Value::Null => None,
                v => Some(v),
            } {
                let app = AppSpec::from_value(app)
                    .map_err(|e| format!("{}: line {n}: bad arrival: {e}", path.display()))?;
                arrivals.push(app);
            } else if let Some(drain) = match serde::map_get(m, "drain") {
                serde::Value::Null => None,
                v => Some(v),
            } {
                let dm = drain
                    .as_map()
                    .ok_or_else(|| format!("{}: line {n}: bad drain marker", path.display()))?;
                // A resumed daemon starts its clock past the largest drain
                // instant; an infinite one would stamp every release-less
                // submission with a release the engine refuses.
                let at = float_from_value(serde::map_get(dm, "virtual_secs"))
                    .ok()
                    .filter(|at| at.is_finite() && *at >= 0.0)
                    .ok_or_else(|| {
                        format!(
                            "{}: line {n}: bad drain marker: virtual_secs must be a finite, \
                             non-negative virtual time",
                            path.display()
                        )
                    })?;
                drained_at_secs = Some(drained_at_secs.map_or(at, |prev| prev.max(at)));
            } else {
                return Err(format!(
                    "{}: line {n} is neither an arrival nor a drain marker",
                    path.display()
                ));
            }
        }
        Ok(JournalContents {
            spec,
            arrivals,
            drained_at_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::{Bytes, Time};
    use std::fs::OpenOptions;
    use std::io::Write;

    fn spec() -> ServeSpec {
        ServeSpec {
            platform: Platform::intrepid(),
            policy: PolicyFactory::parse("maxsyseff").unwrap(),
            accel: 1000.0,
            config: SimConfig::default(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iosched-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn arrival(id: usize, release: f64) -> AppSpec {
        AppSpec::periodic(
            id,
            Time::secs(release),
            2_048,
            Time::secs(100.0),
            Bytes::gib(512.0),
            3,
        )
    }

    #[test]
    fn journal_round_trips_spec_and_arrivals() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, &spec()).unwrap();
        let apps = [arrival(0, 10.5), arrival(1, 0.1 + 0.2)];
        for app in &apps {
            journal.append(app).unwrap();
        }
        journal.mark_drain(123.456).unwrap();
        drop(journal);

        let contents = Journal::load(&path).unwrap();
        assert_eq!(contents.spec, spec());
        assert_eq!(contents.arrivals, apps);
        // Release times survive bit-exactly (0.1 + 0.2 is not 0.3).
        assert_eq!(
            contents.arrivals[1].release().get().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(contents.drained_at_secs, Some(123.456));

        // Reopen appends after the recovered lines.
        let mut journal = Journal::reopen(&path, &contents).unwrap();
        assert_eq!(journal.arrivals(), 2);
        journal.append(&arrival(2, 200.0)).unwrap();
        drop(journal);
        assert_eq!(Journal::load(&path).unwrap().arrivals.len(), 3);
    }

    #[test]
    fn torn_tail_is_dropped_mid_file_corruption_is_fatal() {
        let path = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, &spec()).unwrap();
        journal.append(&arrival(0, 1.0)).unwrap();
        drop(journal);

        // Torn final line (no newline): dropped.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"arrival\":{\"id\":1,\"rel").unwrap();
        drop(f);
        let contents = Journal::load(&path).unwrap();
        assert_eq!(contents.arrivals.len(), 1);

        // Same garbage followed by an intact line: corruption.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"\n{\"drain\":{\"virtual_secs\":9,\"arrivals\":1}}\n")
            .unwrap();
        drop(f);
        let err = Journal::load(&path).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
    }

    /// The load stops at the first damaged line in file order: a line
    /// that is neither an arrival nor a drain marker is reported even
    /// when a later line is not JSON at all.
    #[test]
    fn the_first_damaged_line_is_the_one_reported() {
        let path = tmp("order.jsonl");
        let _ = std::fs::remove_file(&path);
        drop(Journal::create(&path, &spec()).unwrap());
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"checkpoint\":{}}\n{\"arrival\":\n")
            .unwrap();
        drop(f);
        let err = Journal::load(&path).unwrap_err();
        assert!(
            err.contains("line 2 is neither an arrival nor a drain marker"),
            "{err}"
        );
    }

    /// A drain marker sets a resumed daemon's clock, so one off the time
    /// line (infinite, NaN or negative) is damage, not a clock to resume.
    #[test]
    fn a_drain_marker_off_the_time_line_is_damage() {
        let path = tmp("drain-inf.jsonl");
        for at in ["\"inf\"", "\"nan:7ff8000000000000\"", "-5"] {
            let _ = std::fs::remove_file(&path);
            let mut journal = Journal::create(&path, &spec()).unwrap();
            journal.append(&arrival(0, 1.0)).unwrap();
            drop(journal);
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{{\"drain\":{{\"virtual_secs\":{at},\"arrivals\":1}}}}").unwrap();
            drop(f);
            let err = Journal::load(&path).unwrap_err();
            assert!(
                err.contains("line 3: bad drain marker: virtual_secs"),
                "{at}: {err}"
            );
        }
    }

    /// A crash can cut the journal at any byte past its manifest.
    /// Whatever survives, `load` recovers exactly the whole lines, and a
    /// resumed writer appends after them: every earlier arrival and the
    /// new one load back.
    #[test]
    fn resume_after_a_cut_at_every_offset_keeps_every_whole_line() {
        let path = tmp("cut.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, &spec()).unwrap();
        let manifest_end = std::fs::metadata(&path).unwrap().len() as usize;
        let apps = [arrival(0, 1.0), arrival(1, 2.5), arrival(2, 4.0)];
        for app in &apps {
            journal.append(app).unwrap();
        }
        journal.mark_drain(50.0).unwrap();
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        let next = arrival(3, 100.0);
        for cut in manifest_end + 1..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            // Whole lines past the manifest: the arrivals, then the drain.
            let whole = full[manifest_end..cut]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            let kept = whole.min(apps.len());
            let contents = Journal::load(&path).unwrap();
            assert_eq!(contents.arrivals, apps[..kept], "cut at {cut}");
            assert_eq!(
                contents.drained_at_secs.is_some(),
                whole > apps.len(),
                "cut at {cut}"
            );

            let mut journal = Journal::reopen(&path, &contents).unwrap();
            journal.append(&next).unwrap();
            drop(journal);
            let resumed = Journal::load(&path).unwrap();
            let mut expected = apps[..kept].to_vec();
            expected.push(next.clone());
            assert_eq!(resumed.arrivals, expected, "cut at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_to_overwrite_and_load_requires_a_manifest() {
        let path = tmp("exists.jsonl");
        let _ = std::fs::remove_file(&path);
        Journal::create(&path, &spec()).unwrap();
        assert!(Journal::create(&path, &spec()).is_err());

        let bare = tmp("bare.jsonl");
        std::fs::write(&bare, "{\"arrival\":{}}\n").unwrap();
        let err = Journal::load(&bare).unwrap_err();
        assert!(err.contains("manifest"), "{err}");
    }

    #[test]
    fn serve_spec_validation_names_the_problem() {
        let mut bad = spec();
        bad.policy = PolicyFactory::parse("periodic:cong").unwrap();
        let err = bad.validate().unwrap_err();
        assert!(err.contains("offline"), "{err}");

        let mut bad = spec();
        bad.accel = -2.0;
        assert!(bad.validate().unwrap_err().contains("accelerate"));

        let mut bad = spec();
        bad.config.horizon = Some(Time::secs(100.0));
        assert!(bad.validate().unwrap_err().contains("horizon"));

        spec().validate().unwrap();
    }
}

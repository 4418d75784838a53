//! The serve wire protocol: line-delimited JSON, one request or
//! response per line.
//!
//! ## Requests
//!
//! ```text
//! {"cmd":"submit","procs":100,"work":8.0,"vol":20.0,"count":3}
//! {"cmd":"submit","procs":64,"instances":[[10.0,5.0]],"release":3600}
//! {"cmd":"status"}
//! {"cmd":"telemetry"}            // one-shot: latest interval
//! {"cmd":"telemetry","follow":true}   // subscribe to the live feed
//! {"cmd":"metrics"}              // observability snapshot (see `metrics`)
//! {"cmd":"checkpoint"}           // fsync the journal
//! {"cmd":"drain"}                // stop accepting, checkpoint, exit
//! {"cmd":"shutdown"}             // close admission, run to completion
//! ```
//!
//! A `submit` carries an [`AppSubmission`] payload inline (every field
//! except `cmd` and the optional `release` is the submission). The
//! optional `release` pins the virtual release instant explicitly —
//! the deterministic mode CI and the resume tests use; without it the
//! daemon stamps its virtual clock. Malformed lines are answered with
//! `{"err":…}` and never terminate the daemon — the fuzz suite pins
//! that.
//!
//! ## Responses
//!
//! Every response is a single JSON object line: `{"ok":…}` on success
//! (shape per command), `{"err":"…"}` on failure, `{"telemetry":{…}}`
//! for subscription feed lines, and a closing `{"final":{…}}` after
//! `shutdown` — the byte-identity surface the resume tests and the CI
//! smoke diff against `iosched serve --replay`. Floats ride the
//! lossless encoding of [`iosched_model::lossless`].

use iosched_model::lossless::float_to_value;
use iosched_model::Time;
use iosched_obs::MetricsSnapshot;
use iosched_sim::{SimOutcome, TelemetrySample};
use iosched_workload::AppSubmission;
use serde::{Serialize, Value};

/// One parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit an application for admission.
    Submit {
        /// What the application does.
        submission: AppSubmission,
        /// Explicit release instant (virtual seconds); `None` lets the
        /// daemon stamp its clock.
        release: Option<Time>,
    },
    /// Report daemon and engine state.
    Status,
    /// Latest telemetry interval; `follow` subscribes this client to
    /// the live feed.
    Telemetry {
        /// Subscribe instead of one-shot.
        follow: bool,
    },
    /// Snapshot the daemon's metrics catalog (request latency
    /// histograms, journal timings, queue-depth gauges).
    Metrics,
    /// Force the journal to durable storage.
    Checkpoint,
    /// Stop accepting submissions, checkpoint, and exit (the session
    /// resumes later from the journal).
    Drain,
    /// Close admission, run the engine to completion, report the final
    /// outcome, and exit.
    Shutdown,
}

/// Parse one request line. Errors are actionable strings ready to ship
/// back as an `{"err":…}` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = serde_json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let map = value
        .as_map()
        .ok_or("request must be a JSON object with a \"cmd\" field")?;
    let cmd = match serde::map_get(map, "cmd") {
        Value::Null => Err("request is missing \"cmd\"".to_string()),
        v => v
            .as_str()
            .map(str::to_string)
            .ok_or("\"cmd\" must be a string".to_string()),
    }?;
    let flag = |key: &str| -> Result<bool, String> {
        match serde::map_get(map, key) {
            Value::Null => Ok(false),
            v => v
                .as_bool()
                .ok_or_else(|| format!("\"{key}\" must be a boolean")),
        }
    };
    let bare = |req: Request| -> Result<Request, String> {
        if let Some((stray, _)) = map.iter().find(|(k, _)| k != "cmd") {
            return Err(format!(
                "\"{cmd}\" takes no arguments (got field '{stray}')"
            ));
        }
        Ok(req)
    };
    match cmd.as_str() {
        "submit" => {
            let release = match serde::map_get(map, "release") {
                Value::Null => None,
                v => {
                    let secs = v
                        .as_f64()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("\"release\" must be a positive finite number of virtual seconds")?;
                    Some(Time::secs(secs))
                }
            };
            // Everything except the envelope fields is the submission
            // payload (AppSubmission rejects unknown fields, so the
            // envelope must be stripped, not forwarded).
            let payload: Vec<(String, Value)> = map
                .iter()
                .filter(|(k, _)| k != "cmd" && k != "release")
                .cloned()
                .collect();
            let submission = AppSubmission::from_value(&Value::Map(payload))?;
            Ok(Request::Submit {
                submission,
                release,
            })
        }
        "telemetry" => {
            if let Some((stray, _)) = map.iter().find(|(k, _)| k != "cmd" && k != "follow") {
                return Err(format!("\"telemetry\" takes only 'follow' (got '{stray}')"));
            }
            Ok(Request::Telemetry {
                follow: flag("follow")?,
            })
        }
        "status" => bare(Request::Status),
        "metrics" => bare(Request::Metrics),
        "checkpoint" => bare(Request::Checkpoint),
        "drain" => bare(Request::Drain),
        "shutdown" => bare(Request::Shutdown),
        other => Err(format!(
            "unknown command '{other}' (expected submit, status, telemetry, \
             metrics, checkpoint, drain or shutdown)"
        )),
    }
}

fn object(fields: Vec<(&str, Value)>) -> String {
    let map: Vec<(String, Value)> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    serde_json::to_string(&Value::Map(map)).expect("protocol values always serialize")
}

/// `{"err":"…"}`
#[must_use]
pub fn error_line(message: &str) -> String {
    object(vec![("err", Value::Str(message.to_string()))])
}

/// `{"ok":"submit","id":…,"release_secs":…}` — acknowledges an accepted
/// (and journaled) submission.
#[must_use]
pub fn submit_line(id: usize, release: Time) -> String {
    object(vec![
        ("ok", Value::Str("submit".into())),
        ("id", id.to_value()),
        ("release_secs", float_to_value(release.get())),
    ])
}

/// A snapshot of daemon + engine state for the `status` reply.
#[derive(Debug, Clone, Copy)]
pub struct StatusReport {
    /// Daemon virtual clock (seconds).
    pub clock_secs: f64,
    /// Engine clock (seconds) — trails the virtual clock by at most one
    /// inter-event gap.
    pub engine_secs: f64,
    /// Scheduling events processed so far.
    pub events: usize,
    /// Applications admitted into the engine.
    pub admitted: usize,
    /// Accepted applications still waiting for their release instant.
    pub queued: usize,
    /// Applications currently resident (admitted, not yet retired).
    pub live: usize,
    /// Applications retired (all instances complete).
    pub finished: usize,
    /// Arrivals in the journal (the checkpoint's length).
    pub journaled: usize,
    /// True once a drain was requested.
    pub draining: bool,
}

/// `{"ok":"status",…}`
#[must_use]
pub fn status_line(s: &StatusReport) -> String {
    object(vec![
        ("ok", Value::Str("status".into())),
        ("clock_secs", float_to_value(s.clock_secs)),
        ("engine_secs", float_to_value(s.engine_secs)),
        ("events", s.events.to_value()),
        ("admitted", s.admitted.to_value()),
        ("queued", s.queued.to_value()),
        ("live", s.live.to_value()),
        ("finished", s.finished.to_value()),
        ("journaled", s.journaled.to_value()),
        ("draining", s.draining.to_value()),
    ])
}

/// `{"telemetry":{…}}` — one engine allocation interval.
#[must_use]
pub fn telemetry_line(sample: &TelemetrySample) -> String {
    object(vec![(
        "telemetry",
        Value::Map(vec![
            ("start_secs".into(), float_to_value(sample.start.get())),
            ("end_secs".into(), float_to_value(sample.end.get())),
            ("offered_gibs".into(), float_to_value(sample.offered.get())),
            ("granted_gibs".into(), float_to_value(sample.granted.get())),
            (
                "delivered_gibs".into(),
                float_to_value(sample.delivered.get()),
            ),
            (
                "capacity_gibs".into(),
                float_to_value(sample.capacity.get()),
            ),
            ("backlog_gib".into(), float_to_value(sample.backlog.get())),
            ("pending".into(), sample.pending.to_value()),
        ]),
    )])
}

/// `{"ok":"metrics","metrics":{"counters":…,"gauges":…,"histograms":…}}`
/// — the whole metrics catalog; histogram values carry the raw
/// log₂-bucket counts so clients derive whichever quantiles they want.
#[must_use]
pub fn metrics_line(snapshot: &MetricsSnapshot) -> String {
    object(vec![
        ("ok", Value::Str("metrics".into())),
        ("metrics", snapshot.to_value()),
    ])
}

/// `{"ok":"checkpoint","arrivals":…,"path":"…"}`
#[must_use]
pub fn checkpoint_line(arrivals: usize, path: &str) -> String {
    object(vec![
        ("ok", Value::Str("checkpoint".into())),
        ("arrivals", arrivals.to_value()),
        ("path", Value::Str(path.to_string())),
    ])
}

/// `{"ok":"drain","arrivals":…,"clock_secs":…}` — the daemon exits
/// after sending this; the journal is the resumable checkpoint.
#[must_use]
pub fn drain_line(arrivals: usize, clock_secs: f64) -> String {
    object(vec![
        ("ok", Value::Str("drain".into())),
        ("arrivals", arrivals.to_value()),
        ("clock_secs", float_to_value(clock_secs)),
    ])
}

/// `{"final":{…}}` — the run's outcome, the byte-identity surface.
/// A replay of the same journal (`iosched serve --replay`) must produce
/// this exact line.
#[must_use]
pub fn final_line(outcome: &SimOutcome, admitted: usize) -> String {
    let report = &outcome.report;
    object(vec![(
        "final",
        Value::Map(vec![
            ("admitted".into(), admitted.to_value()),
            ("finished".into(), report.per_app.len().to_value()),
            ("events".into(), outcome.events.to_value()),
            ("end_secs".into(), float_to_value(outcome.end_time.get())),
            (
                "sys_efficiency".into(),
                float_to_value(report.sys_efficiency),
            ),
            ("upper_limit".into(), float_to_value(report.upper_limit)),
            ("dilation".into(), float_to_value(report.dilation)),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::InstancePattern;
    use serde::Deserialize;

    #[test]
    fn submit_requests_parse_with_and_without_release() {
        let req = parse_request(
            r#"{"cmd":"submit","procs":100,"work":8.0,"vol":20.0,"count":3,"release":3600}"#,
        )
        .unwrap();
        let Request::Submit {
            submission,
            release,
        } = req
        else {
            panic!("expected submit");
        };
        assert_eq!(submission.procs, 100);
        assert!(matches!(
            submission.pattern,
            InstancePattern::Periodic { count: 3, .. }
        ));
        assert!(release.unwrap().approx_eq(Time::secs(3600.0)));

        let req = parse_request(r#"{"cmd":"submit","procs":64,"instances":[[1.0,2.0]]}"#).unwrap();
        assert!(matches!(req, Request::Submit { release: None, .. }));
    }

    #[test]
    fn bare_commands_parse_and_reject_stray_fields() {
        assert_eq!(
            parse_request(r#"{"cmd":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"cmd":"telemetry","follow":true}"#).unwrap(),
            Request::Telemetry { follow: true }
        );
        assert_eq!(parse_request(r#"{"cmd":"drain"}"#).unwrap(), Request::Drain);
        let err = parse_request(r#"{"cmd":"drain","now":true}"#).unwrap_err();
        assert!(err.contains("'now'"), "{err}");
        assert_eq!(
            parse_request(r#"{"cmd":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        let err = parse_request(r#"{"cmd":"metrics","format":"text"}"#).unwrap_err();
        assert!(err.contains("'format'"), "{err}");
    }

    #[test]
    fn metrics_line_is_a_parseable_registry_snapshot() {
        let mut status = iosched_obs::HistogramSnapshot::default();
        status.record(1500);
        let line = metrics_line(&MetricsSnapshot::new(
            vec![("serve.requests".into(), 4)],
            Vec::new(),
            vec![("serve.request.status.ns".into(), status)],
        ));
        assert!(line.starts_with(r#"{"ok":"metrics","metrics":{"#), "{line}");
        let v = serde_json::parse(&line).unwrap();
        let snap =
            MetricsSnapshot::from_value(serde::map_get(v.as_map().unwrap(), "metrics")).unwrap();
        assert_eq!(snap.counter("serve.requests"), Some(4));
        assert_eq!(snap.histogram("serve.request.status.ns").unwrap().count, 1);
    }

    #[test]
    fn malformed_requests_get_actionable_errors() {
        for (bad, needle) in [
            ("", "invalid JSON"),
            ("nonsense", "invalid JSON"),
            ("[1,2]", "JSON object"),
            ("{}", "missing \"cmd\""),
            (r#"{"cmd":7}"#, "must be a string"),
            (r#"{"cmd":"reboot"}"#, "unknown command 'reboot'"),
            (r#"{"cmd":"submit"}"#, "missing 'procs'"),
            (
                r#"{"cmd":"submit","procs":4,"work":1,"vol":1,"release":-3}"#,
                "\"release\"",
            ),
            (
                r#"{"cmd":"submit","procs":4,"work":1,"vol":1,"release":"now"}"#,
                "\"release\"",
            ),
            (r#"{"cmd":"telemetry","follow":"yes"}"#, "boolean"),
        ] {
            let err = parse_request(bad).expect_err(bad);
            assert!(
                err.contains(needle),
                "{bad}: error '{err}' lacks '{needle}'"
            );
        }
    }

    #[test]
    fn response_lines_are_single_json_objects() {
        assert_eq!(error_line("boom"), r#"{"err":"boom"}"#);
        let line = submit_line(3, Time::secs(0.1 + 0.2));
        assert!(
            line.starts_with(r#"{"ok":"submit","id":3,"release_secs":"#),
            "{line}"
        );
        // The release survives losslessly through a parse round-trip.
        let v = serde_json::parse(&line).unwrap();
        let m = v.as_map().unwrap();
        let r =
            iosched_model::lossless::float_from_value(serde::map_get(m, "release_secs")).unwrap();
        assert_eq!(r.to_bits(), (0.1f64 + 0.2).to_bits());
    }
}

//! Parsing of external application submissions — the `submit` payload
//! of the `iosched serve` JSONL protocol.
//!
//! A submission describes *what the application does*, never *when or as
//! whom it runs*: the daemon assigns the dense [`AppId`] and the release
//! time (its virtual clock) at acceptance, because both are properties
//! of the admission sequence, not of the application. Keeping them out
//! of the wire format makes it impossible for a client to violate the
//! engine's dense-id/sorted-release admission contract by construction.
//!
//! ```json
//! {"procs": 100, "work": 8.0, "vol": 20.0, "count": 3}
//! {"procs": 64, "instances": [[10.0, 5.0], [0.0, 2.5]]}
//! ```
//!
//! `work` is seconds of computation per instance, `vol` GiB of I/O per
//! instance, `count` the number of instances (default 1). The explicit
//! `instances` form lists `[work_secs, vol_gib]` pairs. Every malformed
//! field is rejected with an error naming the field and the expected
//! shape — a daemon must be able to hand the message straight back to
//! the submitting client.
//!
//! [`AppId`]: iosched_model::AppId

use iosched_model::app::MAX_INSTANCES;
use iosched_model::{AppSpec, Bytes, Instance, InstancePattern, Time};

/// One parsed submission: everything an [`AppSpec`] needs except the
/// id and release the daemon assigns at acceptance.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSubmission {
    /// Dedicated processors (β).
    pub procs: u64,
    /// The instance pattern (periodic or explicit).
    pub pattern: InstancePattern,
}

impl AppSubmission {
    /// Parse one submission payload. Errors are actionable: they name
    /// the offending field, the received value and the expected shape.
    pub fn from_value(v: &serde::Value) -> Result<Self, String> {
        let map = v.as_map().ok_or(
            "submission must be a JSON object like \
                    {\"procs\": 100, \"work\": 8.0, \"vol\": 20.0, \"count\": 3}",
        )?;

        for (key, _) in map {
            if !matches!(
                key.as_str(),
                "procs" | "work" | "vol" | "count" | "instances"
            ) {
                return Err(format!(
                    "unknown submission field '{key}' \
                     (expected procs, work, vol, count or instances)"
                ));
            }
        }
        let field = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, value)| value);
        let number = |key: &str| -> Result<Option<f64>, String> {
            match field(key) {
                None => Ok(None),
                Some(value) => {
                    let n = value
                        .as_f64()
                        .ok_or_else(|| format!("submission field '{key}' must be a number"))?;
                    if !n.is_finite() || n < 0.0 {
                        return Err(format!(
                            "submission field '{key}' is {n} but must be finite and non-negative"
                        ));
                    }
                    // Normalize -0.0: the derived AppSpec serde writes
                    // plain JSON numbers, which cannot carry the sign of
                    // zero — and a journaled spec must round-trip
                    // bit-identically.
                    Ok(Some(if n == 0.0 { 0.0 } else { n }))
                }
            }
        };

        let procs =
            number("procs")?.ok_or("submission is missing 'procs' (dedicated processor count)")?;
        if procs < 1.0 || procs.fract() != 0.0 {
            return Err(format!(
                "submission field 'procs' is {procs} but must be a positive integer"
            ));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let procs = procs as u64;

        let explicit = field("instances");
        let periodic =
            field("work").is_some() || field("vol").is_some() || field("count").is_some();
        let pattern = match (explicit, periodic) {
            (Some(_), true) => {
                return Err("submission mixes 'instances' with 'work'/'vol'/'count'; \
                            use one form or the other"
                    .into())
            }
            (None, false) => {
                return Err("submission needs either 'work'+'vol' (periodic form) \
                            or 'instances' (explicit form)"
                    .into())
            }
            (Some(list), false) => {
                let seq = list.as_seq().ok_or(
                    "submission field 'instances' must be an array of \
                            [work_secs, vol_gib] pairs",
                )?;
                if seq.is_empty() {
                    return Err("submission field 'instances' must list at least one \
                                [work_secs, vol_gib] pair"
                        .into());
                }
                let mut instances = Vec::with_capacity(seq.len());
                for (k, pair) in seq.iter().enumerate() {
                    let err = || {
                        format!(
                            "submission instance {k} must be a [work_secs, vol_gib] \
                             pair of finite non-negative numbers"
                        )
                    };
                    let pair = pair.as_seq().ok_or_else(err)?;
                    let [work, vol] = pair else {
                        return Err(err());
                    };
                    let (work, vol) = match (work.as_f64(), vol.as_f64()) {
                        (Some(w), Some(v))
                            if w.is_finite() && w >= 0.0 && v.is_finite() && v >= 0.0 =>
                        {
                            // Same -0.0 normalization as the periodic form.
                            (
                                if w == 0.0 { 0.0 } else { w },
                                if v == 0.0 { 0.0 } else { v },
                            )
                        }
                        _ => return Err(err()),
                    };
                    instances.push(Instance::new(Time::secs(work), Bytes::gib(vol)));
                }
                InstancePattern::Explicit(instances)
            }
            (None, true) => {
                let work = number("work")?
                    .ok_or("submission is missing 'work' (seconds of computation per instance)")?;
                let vol = number("vol")?
                    .ok_or("submission is missing 'vol' (GiB of I/O per instance)")?;
                let count = number("count")?.unwrap_or(1.0);
                // The same bound `AppSpec::validate` enforces, checked
                // here on the float so the cast below cannot saturate.
                if count < 1.0 || count.fract() != 0.0 || count > MAX_INSTANCES as f64 {
                    return Err(format!(
                        "submission field 'count' is {count} but must be a positive integer \
                         (at most {MAX_INSTANCES} instances)"
                    ));
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                InstancePattern::Periodic {
                    work: Time::secs(work),
                    vol: Bytes::gib(vol),
                    count: count as usize,
                }
            }
        };
        Ok(Self { procs, pattern })
    }

    /// Parse a raw JSON payload string (one protocol line's argument).
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let value = serde_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Self::from_value(&value)
    }

    /// Stamp the daemon-assigned identity onto the submission. The
    /// result still passes through the engine's admission validation
    /// ([`iosched_model::app::validate_open_arrival`]) — this only
    /// assembles, it does not bypass.
    #[must_use]
    pub fn into_app(self, id: usize, release: Time) -> AppSpec {
        AppSpec::new(id, release, self.procs, self.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<AppSubmission, String> {
        AppSubmission::parse_json(text)
    }

    #[test]
    fn periodic_form_parses_with_defaulted_count() {
        let sub = parse(r#"{"procs": 100, "work": 8.0, "vol": 20.0, "count": 3}"#).unwrap();
        assert_eq!(sub.procs, 100);
        assert_eq!(
            sub.pattern,
            InstancePattern::Periodic {
                work: Time::secs(8.0),
                vol: Bytes::gib(20.0),
                count: 3
            }
        );
        let one = parse(r#"{"procs": 1, "work": 0.0, "vol": 1.5}"#).unwrap();
        assert!(matches!(
            one.pattern,
            InstancePattern::Periodic { count: 1, .. }
        ));
        // The stamped AppSpec is a valid application.
        let app = one.into_app(0, Time::secs(10.0));
        app.validate().unwrap();
        assert_eq!(app.id(), iosched_model::AppId(0));
        assert!(app.release().approx_eq(Time::secs(10.0)));
    }

    #[test]
    fn explicit_form_parses_instance_pairs() {
        let sub = parse(r#"{"procs": 64, "instances": [[10.0, 5.0], [0.0, 2.5]]}"#).unwrap();
        let InstancePattern::Explicit(instances) = &sub.pattern else {
            panic!("expected explicit pattern");
        };
        assert_eq!(instances.len(), 2);
        assert!(instances[0].work.approx_eq(Time::secs(10.0)));
        assert!(instances[1].vol.approx_eq(Bytes::gib(2.5)));
    }

    #[test]
    fn malformed_submissions_get_actionable_errors() {
        for (bad, needle) in [
            ("[]", "JSON object"),
            ("{}", "missing 'procs'"),
            (r#"{"procs": 100}"#, "either 'work'+'vol'"),
            (r#"{"procs": 0, "work": 1, "vol": 1}"#, "positive integer"),
            (r#"{"procs": 2.5, "work": 1, "vol": 1}"#, "positive integer"),
            (r#"{"procs": -4, "work": 1, "vol": 1}"#, "non-negative"),
            (r#"{"procs": 100, "work": 1}"#, "missing 'vol'"),
            (r#"{"procs": 100, "vol": 1}"#, "missing 'work'"),
            (r#"{"procs": 100, "work": -1, "vol": 1}"#, "'work'"),
            (
                r#"{"procs": 100, "work": 1, "vol": 1, "count": 0}"#,
                "'count'",
            ),
            (
                r#"{"procs": 100, "work": 1, "vol": 1, "count": 1.5}"#,
                "'count'",
            ),
            (
                r#"{"procs": 100, "work": 1, "vol": 1, "count": 10000001}"#,
                "at most 10000000 instances",
            ),
            (r#"{"procs": 100, "work": "fast", "vol": 1}"#, "'work'"),
            (
                r#"{"procs": 100, "work": 1, "vol": 1, "nodes": 4}"#,
                "unknown submission field 'nodes'",
            ),
            (r#"{"procs": 64, "instances": []}"#, "at least one"),
            (r#"{"procs": 64, "instances": [[1.0]]}"#, "instance 0"),
            (
                r#"{"procs": 64, "instances": [[1.0, 2.0, 3.0]]}"#,
                "instance 0",
            ),
            (r#"{"procs": 64, "instances": [[1.0, -2.0]]}"#, "instance 0"),
            (r#"{"procs": 64, "instances": 7}"#, "array"),
            (
                r#"{"procs": 64, "instances": [[1.0, 1.0]], "work": 1}"#,
                "mixes",
            ),
            ("{not json", "invalid JSON"),
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(
                err.contains(needle),
                "{bad}: error '{err}' lacks '{needle}'"
            );
        }
    }
}

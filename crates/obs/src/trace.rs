//! The decision trace: a bounded, deterministic ring of structured
//! scheduling events.
//!
//! Each event answers "why did the scheduler do that": an application
//! was admitted, a grant set was installed, the §2.1 capacity screen
//! dropped to the validating cold path, an application retired, a
//! policy scheduled its own wakeup, the daemon flushed its arrival
//! journal. Events carry absolute sequence numbers, so even after the
//! ring wraps the exported tail says exactly which prefix was dropped.
//!
//! The trace is *observation-only*: attaching one never changes
//! simulation results (the engine's bit-identity pins run with it on
//! and off), and the events themselves are a pure function of the
//! simulated trajectory — two runs of the same scenario produce
//! byte-identical JSONL, which is what makes `iosched run --trace`
//! replayable alongside `serve --replay`.
//!
//! Every float is encoded with [`iosched_model::lossless`], so a parsed
//! line reproduces the written event bit-for-bit (NaN payloads, `-0.0`
//! and infinities included) — proptested in `tests/trace_roundtrip.rs`.

use iosched_model::lossless::{float_from_value, float_to_value};
use serde::{map_get, Deserialize, Error, Serialize, Value};

/// One structured scheduling decision. Times (`t`, `release`) are
/// simulation seconds. Integer fields (ids, counts) follow the
/// workspace serde data model: exact up to 2^53.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An application entered the system (closed-roster release or
    /// stream/daemon admission).
    Admission {
        /// Application id.
        id: u64,
        /// Admission instant.
        t: f64,
        /// The application's release time (≤ `t` up to tolerance).
        release: f64,
    },
    /// An allocation installed a grant set over a non-empty pending set.
    Grant {
        /// Allocation instant.
        t: f64,
        /// Pending (I/O-phase) applications the policy saw.
        pending: u64,
        /// How many of them received a positive grant.
        granted: u64,
        /// Total granted bandwidth (GiB/s).
        total_bw: f64,
        /// Capacity offered to the policy (GiB/s).
        capacity: f64,
    },
    /// The fused grant-merge screen suspected a §2.1 violation and
    /// dropped to the cold validating path (which either produced the
    /// canonical error or cleared the allocation within tolerance).
    CapacityScreen {
        /// Allocation instant.
        t: f64,
        /// Name of the policy whose allocation tripped the screen.
        policy: String,
    },
    /// An application finished its last instance and left the system.
    Retirement {
        /// Application id.
        id: u64,
        /// Finish instant.
        t: f64,
    },
    /// The next event was a policy-scheduled wakeup (timetable
    /// boundaries, control-loop sampling instants).
    PolicyWakeup {
        /// Wakeup instant.
        t: f64,
    },
    /// The serve daemon flushed its write-ahead arrival journal.
    JournalFlush {
        /// Engine clock at the flush.
        t: f64,
        /// Arrivals journaled so far.
        arrivals: u64,
        /// True for a durable `fsync` (checkpoint), false for the
        /// per-submit buffered flush.
        synced: bool,
    },
}

impl TraceEvent {
    /// The `kind` tag this event serializes under.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Admission { .. } => "admission",
            TraceEvent::Grant { .. } => "grant",
            TraceEvent::CapacityScreen { .. } => "capacity_screen",
            TraceEvent::Retirement { .. } => "retirement",
            TraceEvent::PolicyWakeup { .. } => "policy_wakeup",
            TraceEvent::JournalFlush { .. } => "journal_flush",
        }
    }
}

/// One exported trace line: the event plus its absolute sequence number
/// (0-based over the whole run, surviving ring wraparound).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Absolute 0-based event sequence number.
    pub seq: u64,
    /// The decision.
    pub event: TraceEvent,
}

impl Serialize for TraceRecord {
    fn to_value(&self) -> Value {
        let mut m = vec![
            ("seq".to_string(), self.seq.to_value()),
            ("kind".to_string(), Value::Str(self.event.kind().into())),
        ];
        match &self.event {
            TraceEvent::Admission { id, t, release } => {
                m.push(("id".into(), id.to_value()));
                m.push(("t".into(), float_to_value(*t)));
                m.push(("release".into(), float_to_value(*release)));
            }
            TraceEvent::Grant {
                t,
                pending,
                granted,
                total_bw,
                capacity,
            } => {
                m.push(("t".into(), float_to_value(*t)));
                m.push(("pending".into(), pending.to_value()));
                m.push(("granted".into(), granted.to_value()));
                m.push(("total_bw".into(), float_to_value(*total_bw)));
                m.push(("capacity".into(), float_to_value(*capacity)));
            }
            TraceEvent::CapacityScreen { t, policy } => {
                m.push(("t".into(), float_to_value(*t)));
                m.push(("policy".into(), Value::Str(policy.clone())));
            }
            TraceEvent::Retirement { id, t } => {
                m.push(("id".into(), id.to_value()));
                m.push(("t".into(), float_to_value(*t)));
            }
            TraceEvent::PolicyWakeup { t } => {
                m.push(("t".into(), float_to_value(*t)));
            }
            TraceEvent::JournalFlush {
                t,
                arrivals,
                synced,
            } => {
                m.push(("t".into(), float_to_value(*t)));
                m.push(("arrivals".into(), arrivals.to_value()));
                m.push(("synced".into(), synced.to_value()));
            }
        }
        Value::Map(m)
    }
}

impl Deserialize for TraceRecord {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v
            .as_map()
            .ok_or_else(|| Error::custom("expected trace record map"))?;
        let seq = u64::from_value(map_get(m, "seq")).map_err(|e| e.at("seq"))?;
        let kind = map_get(m, "kind")
            .as_str()
            .ok_or_else(|| Error::custom("missing 'kind' tag"))?;
        let t = || float_from_value(map_get(m, "t")).map_err(|e| e.at("t"));
        let event = match kind {
            "admission" => TraceEvent::Admission {
                id: u64::from_value(map_get(m, "id")).map_err(|e| e.at("id"))?,
                t: t()?,
                release: float_from_value(map_get(m, "release")).map_err(|e| e.at("release"))?,
            },
            "grant" => TraceEvent::Grant {
                t: t()?,
                pending: u64::from_value(map_get(m, "pending")).map_err(|e| e.at("pending"))?,
                granted: u64::from_value(map_get(m, "granted")).map_err(|e| e.at("granted"))?,
                total_bw: float_from_value(map_get(m, "total_bw")).map_err(|e| e.at("total_bw"))?,
                capacity: float_from_value(map_get(m, "capacity")).map_err(|e| e.at("capacity"))?,
            },
            "capacity_screen" => TraceEvent::CapacityScreen {
                t: t()?,
                policy: String::from_value(map_get(m, "policy")).map_err(|e| e.at("policy"))?,
            },
            "retirement" => TraceEvent::Retirement {
                id: u64::from_value(map_get(m, "id")).map_err(|e| e.at("id"))?,
                t: t()?,
            },
            "policy_wakeup" => TraceEvent::PolicyWakeup { t: t()? },
            "journal_flush" => TraceEvent::JournalFlush {
                t: t()?,
                arrivals: u64::from_value(map_get(m, "arrivals")).map_err(|e| e.at("arrivals"))?,
                synced: bool::from_value(map_get(m, "synced")).map_err(|e| e.at("synced"))?,
            },
            other => return Err(Error::custom(format!("unknown trace kind '{other}'"))),
        };
        Ok(TraceRecord { seq, event })
    }
}

/// A bounded ring of [`TraceRecord`]s: pushes are O(1), the last
/// `capacity` events are retained, and the absolute sequence numbering
/// plus [`DecisionTrace::dropped`] make truncation explicit.
///
/// The storage is a flat `Vec` with a wrapping overwrite cursor rather
/// than a `VecDeque`: a full ring replaces the oldest record with one
/// assignment instead of a pop/push pair. The push sits on the engine's
/// per-event path (the decision-trace overhead bar in
/// `tests/obs_identity.rs` holds it to a few percent of a ~350 ns
/// event), so the cheap shape matters.
#[derive(Debug, Clone)]
pub struct DecisionTrace {
    cap: usize,
    next_seq: u64,
    /// Index of the oldest retained record; 0 until the ring first
    /// wraps, because records land in push order until then.
    head: usize,
    ring: Vec<TraceRecord>,
}

impl DecisionTrace {
    /// A trace keeping the last `capacity` (≥ 1) events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            cap,
            next_seq: 0,
            head: 0,
            ring: Vec::with_capacity(cap.min(4096)),
        }
    }

    /// Append one event, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        let record = TraceRecord {
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        if self.ring.len() < self.cap {
            self.ring.push(record);
        } else {
            self.ring[self.head] = record;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// Events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing was recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever pushed (= the next sequence number).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted by the ring bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.ring.len() as u64
    }

    /// The retained records, oldest first (unwrapping the ring: the
    /// records at and after the overwrite cursor predate those before
    /// it; until the first wrap the cursor is 0 and this is push order).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Export the retained records as JSONL (one record per line,
    /// oldest first, trailing newline when non-empty).
    ///
    /// # Panics
    /// Never — trace records always serialize.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.records() {
            out.push_str(&serde_json::to_string(rec).expect("trace records serialize"));
            out.push('\n');
        }
        out
    }

    /// Parse one line written by [`DecisionTrace::to_jsonl`].
    pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
        serde_json::from_str(line).map_err(|e| format!("bad trace line: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Admission {
                id: 0,
                t: 0.0,
                release: -0.0,
            },
            TraceEvent::Grant {
                t: 1.5,
                pending: 3,
                granted: 2,
                total_bw: 160.0,
                capacity: 160.0,
            },
            TraceEvent::CapacityScreen {
                t: 1.5,
                policy: "fairshare".into(),
            },
            TraceEvent::Retirement { id: 0, t: 9.25 },
            TraceEvent::PolicyWakeup { t: 32.0 },
            TraceEvent::JournalFlush {
                t: 32.0,
                arrivals: 7,
                synced: true,
            },
        ]
    }

    #[test]
    fn every_kind_roundtrips_through_jsonl() {
        let mut trace = DecisionTrace::new(16);
        for ev in sample_events() {
            trace.push(ev);
        }
        let jsonl = trace.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        for (line, rec) in lines.iter().zip(trace.records()) {
            let back = DecisionTrace::parse_line(line).unwrap();
            assert_eq!(&back, rec);
        }
    }

    #[test]
    fn ring_bound_keeps_the_tail_and_counts_drops() {
        let mut trace = DecisionTrace::new(2);
        for i in 0..5 {
            trace.push(TraceEvent::PolicyWakeup { t: f64::from(i) });
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.total(), 5);
        assert_eq!(trace.dropped(), 3);
        let seqs: Vec<u64> = trace.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn hostile_floats_survive_bitwise() {
        let ev = TraceEvent::Grant {
            t: f64::from_bits(0x7ff8_0000_dead_beef),
            pending: 1,
            granted: 0,
            total_bw: f64::NEG_INFINITY,
            capacity: -0.0,
        };
        let mut trace = DecisionTrace::new(1);
        trace.push(ev);
        let line = trace.to_jsonl();
        let back = DecisionTrace::parse_line(line.trim()).unwrap();
        match back.event {
            TraceEvent::Grant {
                t,
                total_bw,
                capacity,
                ..
            } => {
                assert_eq!(t.to_bits(), 0x7ff8_0000_dead_beef);
                assert_eq!(total_bw, f64::NEG_INFINITY);
                assert_eq!(capacity.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(DecisionTrace::parse_line(r#"{"seq":0,"kind":"nope"}"#).is_err());
        assert!(DecisionTrace::parse_line("not json").is_err());
    }
}

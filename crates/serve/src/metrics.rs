//! The daemon's observability surface: the serve loop's counters and
//! histograms as plain values, and the catalog they report as.
//!
//! The session owns its [`ServeMetrics`], and the daemon's single engine
//! loop owns the session, so every record is a plain `&mut` update: one
//! histogram record per request, one per journal write. Everything here
//! is observation-only: recording wall time can never influence the
//! virtual-clock trajectory, which is a pure function of the accepted
//! arrival sequence.
//!
//! Catalog (all durations in nanoseconds, log₂-bucketed):
//!
//! | name | kind | what |
//! |------|------|------|
//! | `serve.requests` | counter | parsed protocol requests |
//! | `serve.requests.parse_errors` | counter | lines answered `{"err":…}` at parse |
//! | `serve.requests.rejected` | counter | well-formed submissions the engine refused |
//! | `serve.request.{submit,status,telemetry,metrics,other}.ns` | histogram | request handling latency |
//! | `serve.journal.append.ns` | histogram | write-ahead arrival append (pre-ack) |
//! | `serve.journal.fsync.ns` | histogram | journal durability barrier (`checkpoint`/`drain`) |
//! | `serve.engine.{live,queued,pending,journaled}` | gauge | queue depths when the snapshot is taken |

use crate::protocol::{Request, StatusReport};
use iosched_obs::{HistogramSnapshot, MetricsSnapshot};

/// Which latency histogram a request's handling records into, taken
/// before the handler consumes the request. `drain`/`shutdown` share
/// the `other` histogram with `checkpoint` — they answer once and exit,
/// so a dedicated series would never hold more than one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// `submit`.
    Submit,
    /// `status`.
    Status,
    /// `telemetry`.
    Telemetry,
    /// `metrics`.
    Metrics,
    /// `checkpoint`, `drain` and `shutdown`.
    Other,
}

impl RequestKind {
    /// The kind of `request`.
    #[must_use]
    pub fn of(request: &Request) -> Self {
        match request {
            Request::Submit { .. } => Self::Submit,
            Request::Status => Self::Status,
            Request::Telemetry { .. } => Self::Telemetry,
            Request::Metrics => Self::Metrics,
            Request::Checkpoint | Request::Drain | Request::Shutdown => Self::Other,
        }
    }
}

/// The serve loop's counters and histograms.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Protocol requests parsed successfully.
    pub requests: u64,
    /// Lines that failed to parse.
    pub parse_errors: u64,
    /// Well-formed submissions the engine (or drain state) refused.
    pub rejected: u64,
    /// Write-ahead append latency (every acknowledged arrival).
    pub journal_append: HistogramSnapshot,
    /// Journal fsync latency (`checkpoint` and `drain`).
    pub journal_fsync: HistogramSnapshot,
    req_submit: HistogramSnapshot,
    req_status: HistogramSnapshot,
    req_telemetry: HistogramSnapshot,
    req_metrics: HistogramSnapshot,
    req_other: HistogramSnapshot,
}

impl ServeMetrics {
    /// The latency histogram a request of `kind` records into.
    pub fn request_hist(&mut self, kind: RequestKind) -> &mut HistogramSnapshot {
        match kind {
            RequestKind::Submit => &mut self.req_submit,
            RequestKind::Status => &mut self.req_status,
            RequestKind::Telemetry => &mut self.req_telemetry,
            RequestKind::Metrics => &mut self.req_metrics,
            RequestKind::Other => &mut self.req_other,
        }
    }

    /// The whole catalog: the counters and histograms so far, and the
    /// queue-depth gauges read from a status snapshot plus the engine's
    /// in-flight I/O count.
    #[must_use]
    pub fn snapshot(&self, status: &StatusReport, pending: usize) -> MetricsSnapshot {
        let named = |kv: &[(&str, u64)]| kv.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        MetricsSnapshot::new(
            named(&[
                ("serve.requests", self.requests),
                ("serve.requests.parse_errors", self.parse_errors),
                ("serve.requests.rejected", self.rejected),
            ]),
            named(&[
                ("serve.engine.live", status.live as u64),
                ("serve.engine.queued", status.queued as u64),
                ("serve.engine.pending", pending as u64),
                ("serve.engine.journaled", status.journaled as u64),
            ]),
            [
                ("serve.journal.append.ns", &self.journal_append),
                ("serve.journal.fsync.ns", &self.journal_fsync),
                ("serve.request.submit.ns", &self.req_submit),
                ("serve.request.status.ns", &self.req_status),
                ("serve.request.telemetry.ns", &self.req_telemetry),
                ("serve.request.metrics.ns", &self.req_metrics),
                ("serve.request.other.ns", &self.req_other),
            ]
            .into_iter()
            .map(|(n, h)| (n.to_string(), h.clone()))
            .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_registers_and_routes_requests() {
        let mut m = ServeMetrics::default();
        m.requests += 1;
        m.request_hist(RequestKind::of(&Request::Status))
            .record(100);
        m.request_hist(RequestKind::of(&Request::Drain)).record(7);
        let snap = m.snapshot(
            &StatusReport {
                clock_secs: 0.0,
                engine_secs: 0.0,
                events: 0,
                admitted: 3,
                queued: 2,
                live: 1,
                finished: 0,
                journaled: 3,
                draining: false,
            },
            5,
        );
        assert_eq!(snap.counter("serve.requests"), Some(1));
        assert_eq!(snap.gauge("serve.engine.pending"), Some(5));
        assert_eq!(snap.gauge("serve.engine.journaled"), Some(3));
        assert_eq!(snap.histogram("serve.request.status.ns").unwrap().count, 1);
        assert_eq!(snap.histogram("serve.request.other.ns").unwrap().count, 1);
        assert_eq!(snap.histogram("serve.request.submit.ns").unwrap().count, 0);
    }
}

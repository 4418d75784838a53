//! The engine's congestion-sensing tap.
//!
//! At every scheduling event the fluid engine records one
//! [`TelemetrySample`] covering the inter-event interval it just closed:
//! the offered load (sum of card limits), the granted and the
//! *delivered* aggregate bandwidth, the usable capacity, the outstanding
//! backlog and the pending count. The tap is **always on** — it is a
//! fixed-size ring buffer plus a handful of scalar accumulators, with no
//! per-event heap allocation — so every policy can read the derived
//! [`CongestionSignal`] through [`SchedContext::signal`]
//! ([`Telemetry::signal`] reflects the last completed interval; the
//! closed-loop `control:*` family feeds on it).
//!
//! Recording the full per-event utilization/contention *series* (needed
//! for the p95/p99 quantiles of the exported [`TelemetrySummary`]) does
//! allocate, so it is opt-in via [`crate::SimConfig::telemetry`]; with
//! the flag off the tap still answers [`Telemetry::signal`] and
//! maintains the windowed view, and simulation results are bit-identical
//! either way (the tap observes, it never steers the engine).
//!
//! [`SchedContext::signal`]: iosched_core::policy::SchedContext::signal

use iosched_core::control::CongestionSignal;
use iosched_model::lossless::{float_from_value, float_to_value};
use iosched_model::stats::Summary;
use iosched_model::{Bw, Bytes, Time};
use serde::{Deserialize, Serialize};

/// One closed inter-event interval, as observed by the tap. The rates
/// are the ones installed at `start` (they are constant across the
/// interval — that is the fluid model); backlog and pending are
/// measured at `start` too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySample {
    /// Interval start (the event that installed these rates).
    pub start: Time,
    /// Interval end (the next event).
    pub end: Time,
    /// Σ card limits of the pending applications.
    pub offered: Bw,
    /// Σ granted application bandwidths.
    pub granted: Bw,
    /// Σ delivered (effective) bandwidths — differs from `granted`
    /// under disk-locality interference.
    pub delivered: Bw,
    /// Usable PFS capacity (after external-load squeeze / burst-buffer
    /// throttling).
    pub capacity: Bw,
    /// Outstanding bytes across pending applications.
    pub backlog: Bytes,
    /// Number of pending applications.
    pub pending: usize,
}

impl TelemetrySample {
    /// A zero-length idle sample (nothing pending, nothing flowing) —
    /// the state an engine opens with before its first allocation, and
    /// whenever the pending set drains.
    #[must_use]
    pub fn idle(now: Time, capacity: Bw) -> Self {
        Self {
            start: now,
            end: now,
            offered: Bw::ZERO,
            granted: Bw::ZERO,
            delivered: Bw::ZERO,
            capacity,
            backlog: Bytes::ZERO,
            pending: 0,
        }
    }

    /// Interval length in seconds.
    #[must_use]
    pub fn dt(&self) -> f64 {
        (self.end - self.start).as_secs().max(0.0)
    }

    /// Delivered utilization of this interval (1 when the capacity is
    /// zero: a fully blocked pipe is vacuously full).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.capacity.get() > 0.0 {
            (self.delivered / self.capacity).max(0.0)
        } else {
            1.0
        }
    }

    /// Offered load over capacity (0 when the capacity is zero).
    #[must_use]
    pub fn contention(&self) -> f64 {
        if self.capacity.get() > 0.0 {
            (self.offered / self.capacity).max(0.0)
        } else {
            0.0
        }
    }

    /// The derived congestion signal of this interval.
    #[must_use]
    pub fn signal(&self) -> CongestionSignal {
        CongestionSignal {
            utilization: self.utilization(),
            contention: self.contention(),
            backlog: self.backlog,
            pending: self.pending,
        }
    }
}

/// Number of samples the always-on ring retains. The ring backs the
/// windowed time-series view ([`Telemetry::windowed`], [`Telemetry::last`])
/// exposed for steppable inspection through
/// [`crate::Simulation::telemetry`]; the per-event signal hand-off to
/// policies reads the cached last signal and never walks the ring.
pub const RING_CAPACITY: usize = 256;

/// The tap itself: ring buffer + whole-run accumulators, optionally a
/// full per-event series for quantile reporting.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Fixed-capacity ring, `head` = index of the next write slot.
    ring: Vec<TelemetrySample>,
    head: usize,
    /// Positive-length intervals observed (including ones evicted from
    /// the ring; zero-length intervals are not counted — they only move
    /// the peaks).
    samples: usize,
    /// Whole-run time integrals for the exported means.
    busy_secs: f64,
    utilization_integral: f64,
    contention_integral: f64,
    /// Whole-run peaks.
    peak_backlog: Bytes,
    peak_pending: usize,
    /// Signal of the newest closed interval, cached at [`Telemetry::record`]
    /// time so the per-event hand-off to the policy is a plain field read
    /// (recomputing it from the ring would put two divisions and the ring
    /// index arithmetic on the engine's hot allocation path).
    last_signal: Option<CongestionSignal>,
    /// Per-interval series (opt-in, feeds the p95/p99 quantiles).
    series: Option<SeriesBuffers>,
}

#[derive(Debug, Clone, Default)]
struct SeriesBuffers {
    utilization: Vec<f64>,
    contention: Vec<f64>,
}

impl Telemetry {
    /// A fresh tap. `track_series` opts into per-interval series
    /// collection (the only allocating part; required for
    /// [`Telemetry::summary`]).
    #[must_use]
    pub fn new(track_series: bool) -> Self {
        Self {
            ring: Vec::with_capacity(RING_CAPACITY),
            head: 0,
            samples: 0,
            busy_secs: 0.0,
            utilization_integral: 0.0,
            contention_integral: 0.0,
            peak_backlog: Bytes::ZERO,
            peak_pending: 0,
            last_signal: None,
            series: track_series.then(SeriesBuffers::default),
        }
    }

    /// Record one closed interval. Zero-length intervals (simultaneous
    /// events) update the peaks but are not stored — they carry no time
    /// weight and would only duplicate points in the distributions.
    pub fn record(&mut self, sample: TelemetrySample) {
        self.peak_backlog = self.peak_backlog.max(sample.backlog);
        self.peak_pending = self.peak_pending.max(sample.pending);
        let dt = sample.dt();
        if dt <= 0.0 {
            return;
        }
        self.samples += 1;
        self.busy_secs += dt;
        let utilization = sample.utilization();
        let contention = sample.contention();
        self.utilization_integral += utilization * dt;
        self.contention_integral += contention * dt;
        self.last_signal = Some(CongestionSignal {
            utilization,
            contention,
            backlog: sample.backlog,
            pending: sample.pending,
        });
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(sample);
        } else {
            self.ring[self.head] = sample;
        }
        self.head = (self.head + 1) % RING_CAPACITY;
        if let Some(series) = &mut self.series {
            series.utilization.push(utilization);
            series.contention.push(contention);
        }
    }

    /// Completed (positive-length) intervals observed so far.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The (up to) `n` most recently closed intervals, oldest first —
    /// the view a live telemetry subscriber streams from: after each
    /// engine step it asks for the intervals closed since its last read
    /// and forwards them in chronological order.
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<TelemetrySample> {
        let take = n.min(self.ring.len());
        (0..take)
            .map(|k| {
                let idx = (self.head + self.ring.len() - take + k) % self.ring.len();
                self.ring[idx]
            })
            .collect()
    }

    /// The most recently closed interval.
    #[must_use]
    pub fn last(&self) -> Option<&TelemetrySample> {
        if self.ring.is_empty() {
            return None;
        }
        let idx = (self.head + self.ring.len() - 1) % self.ring.len();
        Some(&self.ring[idx])
    }

    /// The signal handed to policies: derived from the last completed
    /// interval (`None` until the first one closes — the initial
    /// allocation runs unobserved). A cached field read: this sits on
    /// the engine's per-event allocation path.
    #[must_use]
    pub fn signal(&self) -> Option<CongestionSignal> {
        self.last_signal
    }

    /// Time-weighted signal over (up to) the trailing `window`, walking
    /// the ring newest to oldest. Backlog and pending are taken from the
    /// newest sample. `None` while no interval has closed.
    #[must_use]
    pub fn windowed(&self, window: Time) -> Option<CongestionSignal> {
        let newest = *self.last()?;
        let mut covered = 0.0;
        let mut u = 0.0;
        let mut c = 0.0;
        let want = window.as_secs().max(0.0);
        for k in 0..self.ring.len() {
            let idx = (self.head + self.ring.len() - 1 - k) % self.ring.len();
            let s = &self.ring[idx];
            let take = s.dt().min((want - covered).max(0.0));
            if take <= 0.0 {
                break;
            }
            u += s.utilization() * take;
            c += s.contention() * take;
            covered += take;
        }
        if covered <= 0.0 {
            return Some(newest.signal());
        }
        Some(CongestionSignal {
            utilization: u / covered,
            contention: c / covered,
            backlog: newest.backlog,
            pending: newest.pending,
        })
    }

    /// Export the per-run summary. `None` when the series was not
    /// tracked (see [`Telemetry::new`]) or no interval closed.
    #[must_use]
    pub fn summary(&self) -> Option<TelemetrySummary> {
        let series = self.series.as_ref()?;
        let utilization = Summary::from_slice(&series.utilization)?;
        let contention = Summary::from_slice(&series.contention)?;
        Some(TelemetrySummary {
            samples: self.samples,
            busy_secs: self.busy_secs,
            mean_utilization: self.utilization_integral / self.busy_secs,
            mean_contention: self.contention_integral / self.busy_secs,
            utilization,
            contention,
            peak_backlog_gib: self.peak_backlog.as_gib(),
            peak_pending: self.peak_pending,
        })
    }
}

/// Exportable per-run congestion record (`iosched run` prints and
/// exports this when the config sets `telemetry`; campaign cells
/// aggregate the time-weighted mean utilization across seeds).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Positive-length inter-event intervals observed.
    pub samples: usize,
    /// Simulated seconds covered by those intervals.
    pub busy_secs: f64,
    /// Time-weighted mean delivered utilization over the run.
    pub mean_utilization: f64,
    /// Time-weighted mean contention over the run.
    pub mean_contention: f64,
    /// Per-interval utilization distribution (unweighted; the p95/p99
    /// tail shows how deep congestion episodes cut).
    pub utilization: Summary,
    /// Per-interval contention distribution.
    pub contention: Summary,
    /// Peak outstanding bytes, GiB.
    pub peak_backlog_gib: f64,
    /// Peak number of simultaneously pending applications.
    pub peak_pending: usize,
}

// Manual serde through the shared lossless float encoding
// ([`iosched_model::lossless`]): a mean over an empty window or an
// infinite backlog must survive a JSON round trip bit-for-bit, and the
// derived impl would flatten NaN/∞ to `null` and `-0.0` to `0`.
impl Serialize for TelemetrySummary {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("samples".into(), self.samples.to_value()),
            ("busy_secs".into(), float_to_value(self.busy_secs)),
            (
                "mean_utilization".into(),
                float_to_value(self.mean_utilization),
            ),
            (
                "mean_contention".into(),
                float_to_value(self.mean_contention),
            ),
            ("utilization".into(), self.utilization.to_value()),
            ("contention".into(), self.contention.to_value()),
            (
                "peak_backlog_gib".into(),
                float_to_value(self.peak_backlog_gib),
            ),
            ("peak_pending".into(), self.peak_pending.to_value()),
        ])
    }
}

impl Deserialize for TelemetrySummary {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a telemetry-summary object"))?;
        let float = |key: &str| float_from_value(serde::map_get(m, key)).map_err(|e| e.at(key));
        Ok(Self {
            samples: usize::from_value(serde::map_get(m, "samples"))
                .map_err(|e| e.at("samples"))?,
            busy_secs: float("busy_secs")?,
            mean_utilization: float("mean_utilization")?,
            mean_contention: float("mean_contention")?,
            utilization: Summary::from_value(serde::map_get(m, "utilization"))
                .map_err(|e| e.at("utilization"))?,
            contention: Summary::from_value(serde::map_get(m, "contention"))
                .map_err(|e| e.at("contention"))?,
            peak_backlog_gib: float("peak_backlog_gib")?,
            peak_pending: usize::from_value(serde::map_get(m, "peak_pending"))
                .map_err(|e| e.at("peak_pending"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start: f64, end: f64, delivered: f64, capacity: f64) -> TelemetrySample {
        TelemetrySample {
            start: Time::secs(start),
            end: Time::secs(end),
            offered: Bw::gib_per_sec(delivered * 2.0),
            granted: Bw::gib_per_sec(delivered),
            delivered: Bw::gib_per_sec(delivered),
            capacity: Bw::gib_per_sec(capacity),
            backlog: Bytes::gib(delivered),
            pending: 3,
        }
    }

    #[test]
    fn signal_reflects_the_last_interval() {
        let mut t = Telemetry::new(false);
        assert!(t.signal().is_none());
        t.record(sample(0.0, 10.0, 5.0, 10.0));
        let s = t.signal().unwrap();
        assert!((s.utilization - 0.5).abs() < 1e-12);
        assert!((s.contention - 1.0).abs() < 1e-12);
        assert_eq!(s.pending, 3);
        t.record(sample(10.0, 11.0, 10.0, 10.0));
        assert!((t.signal().unwrap().utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_interval_is_vacuously_full() {
        let s = sample(0.0, 1.0, 0.0, 0.0);
        assert_eq!(s.utilization(), 1.0);
        assert_eq!(s.contention(), 0.0);
    }

    #[test]
    fn zero_length_intervals_only_move_peaks() {
        let mut t = Telemetry::new(true);
        let mut s = sample(5.0, 5.0, 1.0, 10.0);
        s.backlog = Bytes::gib(123.0);
        s.pending = 9;
        t.record(s);
        assert_eq!(t.samples(), 0);
        assert!(t.signal().is_none());
        assert!(t.summary().is_none());
        t.record(sample(5.0, 6.0, 10.0, 10.0));
        let summary = t.summary().unwrap();
        assert_eq!(summary.samples, 1);
        assert_eq!(summary.peak_backlog_gib, 123.0);
        assert_eq!(summary.peak_pending, 9);
    }

    #[test]
    fn ring_wraps_without_losing_the_newest_sample() {
        let mut t = Telemetry::new(false);
        for k in 0..(RING_CAPACITY * 2 + 7) {
            let start = k as f64;
            t.record(sample(start, start + 1.0, 1.0, 10.0));
        }
        assert_eq!(t.samples(), RING_CAPACITY * 2 + 7);
        let last = t.last().unwrap();
        assert!(last
            .end
            .approx_eq(Time::secs((RING_CAPACITY * 2 + 7) as f64)));
    }

    #[test]
    fn windowed_signal_is_time_weighted() {
        let mut t = Telemetry::new(false);
        // 10 s at u = 1.0, then 10 s at u = 0.5.
        t.record(sample(0.0, 10.0, 10.0, 10.0));
        t.record(sample(10.0, 20.0, 5.0, 10.0));
        let w = t.windowed(Time::secs(20.0)).unwrap();
        assert!((w.utilization - 0.75).abs() < 1e-12);
        // A window covering only the newest interval sees only it.
        let w = t.windowed(Time::secs(10.0)).unwrap();
        assert!((w.utilization - 0.5).abs() < 1e-12);
        // A partial window weights the older interval's tail.
        let w = t.windowed(Time::secs(15.0)).unwrap();
        assert!((w.utilization - (0.5 * 10.0 + 1.0 * 5.0) / 15.0).abs() < 1e-12);
    }

    #[test]
    fn recent_returns_chronological_tail() {
        let mut t = Telemetry::new(false);
        assert!(t.recent(4).is_empty());
        for k in 0..(RING_CAPACITY + 5) {
            let start = k as f64;
            t.record(sample(start, start + 1.0, 1.0, 10.0));
        }
        let tail = t.recent(3);
        assert_eq!(tail.len(), 3);
        // Oldest first, ending at the newest interval — across a wrap.
        let newest_end = (RING_CAPACITY + 5) as f64;
        assert!(tail[2].end.approx_eq(Time::secs(newest_end)));
        assert!(tail[0].end.approx_eq(Time::secs(newest_end - 2.0)));
        // Asking for more than the ring holds returns the whole ring.
        assert_eq!(t.recent(RING_CAPACITY * 2).len(), RING_CAPACITY);
    }

    #[test]
    fn summary_serde_round_trips_non_finite_fields() {
        let mut t = Telemetry::new(true);
        t.record(sample(0.0, 30.0, 9.0, 10.0));
        let mut s = t.summary().unwrap();
        s.mean_contention = f64::NAN;
        s.peak_backlog_gib = f64::INFINITY;
        s.busy_secs = -0.0;
        let json = serde_json::to_string(&s).unwrap();
        let back: TelemetrySummary = serde_json::from_str(&json).unwrap();
        assert!(back.mean_contention.is_nan());
        assert_eq!(back.peak_backlog_gib, f64::INFINITY);
        assert_eq!(back.busy_secs.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.samples, s.samples);
        // Summary serde intentionally drops the quantile reservoir.
        assert_eq!(back.utilization.mean, s.utilization.mean);
        assert_eq!(back.utilization.p99, s.utilization.p99);
    }

    #[test]
    fn summary_aggregates_means_and_tails() {
        let mut t = Telemetry::new(true);
        t.record(sample(0.0, 30.0, 9.0, 10.0));
        t.record(sample(30.0, 40.0, 2.0, 10.0));
        let s = t.summary().unwrap();
        assert_eq!(s.samples, 2);
        assert!((s.busy_secs - 40.0).abs() < 1e-12);
        // Time-weighted: (0.9·30 + 0.2·10) / 40.
        assert!((s.mean_utilization - 0.725).abs() < 1e-12);
        assert_eq!(s.utilization.n, 2);
        assert!((s.utilization.max - 0.9).abs() < 1e-12);
        // Without series tracking there is no summary.
        assert!(Telemetry::new(false).summary().is_none());
    }
}

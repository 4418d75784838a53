//! Span timing into plain histograms.
//!
//! Time a region with a [`Stopwatch`] and record the elapsed
//! nanoseconds into a [`HistogramSnapshot`] the caller owns. Timing is
//! observation-only by construction — nothing here feeds back into what
//! it measures — so consumers may leave it attached in
//! bit-identity-pinned paths. Cost when attached is one `Instant` pair
//! plus one histogram record per region.

use std::time::Instant;

use crate::registry::HistogramSnapshot;

/// A started wall-clock span.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    #[must_use]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturating at
    /// `u64::MAX` (584 years).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record the elapsed nanoseconds into `hist` and restart the span,
    /// returning what was recorded — the idiom for timing consecutive
    /// phases with one watch.
    pub fn lap(&mut self, hist: &mut HistogramSnapshot) -> u64 {
        let ns = self.elapsed_ns();
        hist.record(ns);
        self.0 = Instant::now();
        ns
    }

    /// Record the elapsed nanoseconds into `hist` without restarting.
    pub fn record(&self, hist: &mut HistogramSnapshot) -> u64 {
        let ns = self.elapsed_ns();
        hist.record(ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_laps_record_into_histograms() {
        let mut h = HistogramSnapshot::default();
        let mut w = Stopwatch::start();
        let a = w.lap(&mut h);
        let b = w.record(&mut h);
        assert_eq!(h.count, 2);
        assert!(a > 0 || b > 0 || cfg!(miri)); // monotonic clocks tick
    }
}

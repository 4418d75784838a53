//! Piecewise-constant *available bandwidth* over one period `[0, T)`.
//!
//! The greedy insertion of §3.2.3 needs two queries: "how much PFS
//! bandwidth is still free at time t" and "what is the first instant ≥ t
//! where a transfer of duration `d` at constant bandwidth `γ·β` fits
//! contiguously". Both are answered by this segment list.

use iosched_model::{Bw, ModelError, Time};

/// Available-bandwidth profile over `[0, period)`.
///
/// Invariants: `times` is strictly increasing, starts at 0, all entries
/// `< period`; `avail[i]` holds on `[times[i], times[i+1])` (last segment
/// extends to `period`).
#[derive(Debug, Clone)]
pub struct BandwidthProfile {
    period: Time,
    times: Vec<Time>,
    avail: Vec<Bw>,
}

impl BandwidthProfile {
    /// A flat profile: the full capacity `capacity` available on the whole
    /// period.
    ///
    /// # Panics
    /// Panics if `period ≤ 0` or `capacity < 0`.
    #[must_use]
    pub fn new(period: Time, capacity: Bw) -> Self {
        assert!(period.get() > 0.0, "period must be positive");
        assert!(capacity.get() >= 0.0, "capacity must be non-negative");
        Self {
            period,
            times: vec![Time::ZERO],
            avail: vec![capacity],
        }
    }

    /// The period `T`.
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// Number of internal segments (for diagnostics/tests).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.times.len()
    }

    /// Index of the segment containing `t` (`0 ≤ t < period`).
    fn segment_index(&self, t: Time) -> usize {
        debug_assert!(t.approx_ge(Time::ZERO) && t.approx_lt(self.period));
        // Binary search for the last boundary ≤ t.
        match self
            .times
            .binary_search_by(|probe| probe.get().total_cmp(&t.get()))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// End of segment `i`.
    fn segment_end(&self, i: usize) -> Time {
        if i + 1 < self.times.len() {
            self.times[i + 1]
        } else {
            self.period
        }
    }

    /// Available bandwidth at time `t ∈ [0, period)`.
    #[must_use]
    pub fn available_at(&self, t: Time) -> Bw {
        self.avail[self.segment_index(t)]
    }

    /// Minimum available bandwidth over `[start, end)`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ start < end ≤ period`.
    #[must_use]
    pub fn min_available(&self, start: Time, end: Time) -> Bw {
        assert!(start.approx_ge(Time::ZERO) && end.approx_le(self.period) && start.approx_lt(end));
        let mut i = self.segment_index(start);
        let mut min = self.avail[i];
        while self.segment_end(i).approx_lt(end) {
            i += 1;
            min = min.min(self.avail[i]);
        }
        min
    }

    /// Ensure a boundary exists exactly at `t`, splitting a segment if
    /// needed. No-op at 0, at the period end, or on an existing boundary.
    fn split_at(&mut self, t: Time) {
        if t.approx_le(Time::ZERO) || t.approx_ge(self.period) {
            return;
        }
        let i = self.segment_index(t);
        if self.times[i].approx_eq(t) {
            return;
        }
        self.times.insert(i + 1, t);
        let a = self.avail[i];
        self.avail.insert(i + 1, a);
    }

    /// Reserve `bw` over `[start, end)`, reducing availability.
    ///
    /// Fails with [`ModelError::InvalidSchedule`] if the interval is out of
    /// range or the reservation would drive any segment negative.
    pub fn reserve(&mut self, start: Time, end: Time, bw: Bw) -> Result<(), ModelError> {
        if !(start.approx_ge(Time::ZERO) && end.approx_le(self.period) && start.approx_lt(end)) {
            return Err(ModelError::InvalidSchedule(format!(
                "reservation [{start}, {end}) outside period [0, {})",
                self.period
            )));
        }
        if bw.get() < 0.0 || !bw.is_finite() {
            return Err(ModelError::InvalidSchedule(format!(
                "reservation bandwidth {bw} invalid"
            )));
        }
        if self.min_available(start, end).approx_lt(bw) {
            return Err(ModelError::InvalidSchedule(format!(
                "insufficient bandwidth on [{start}, {end}): need {bw}, have {}",
                self.min_available(start, end)
            )));
        }
        self.split_at(start);
        self.split_at(end);
        let mut i = self.segment_index(start);
        loop {
            self.avail[i] = (self.avail[i] - bw).max(Bw::ZERO);
            if self.segment_end(i).approx_ge(end) {
                break;
            }
            i += 1;
        }
        Ok(())
    }

    /// First instant `s ≥ earliest` such that `[s, s+dur)` fits within the
    /// period with at least `bw` available throughout. Returns `None` when
    /// no such window exists.
    ///
    /// A zero-duration request fits at `earliest` itself (if in range).
    ///
    /// The scan walks segments from the one holding `earliest` and stops
    /// with `None` as soon as the current candidate's window would end
    /// past the period, instead of walking the rest of the profile: no
    /// later segment could accept a window (see the comment in the loop).
    #[must_use]
    pub fn first_fit(&self, earliest: Time, dur: Time, bw: Bw) -> Option<Time> {
        let earliest = earliest.max(Time::ZERO);
        if dur.is_zero() {
            return if earliest.approx_le(self.period) {
                Some(earliest.min(self.period))
            } else {
                None
            };
        }
        if earliest.approx_ge(self.period) {
            return None;
        }
        let mut run_start: Option<Time> = None;
        let start_idx = self.segment_index(earliest);
        for i in start_idx..self.times.len() {
            let seg_end = self.segment_end(i);
            if self.avail[i].approx_ge(bw) {
                let rs = *run_start.get_or_insert(self.times[i]);
                let candidate = rs.max(earliest);
                let end = candidate + dur;
                if end.approx_le(seg_end) {
                    return Some(candidate);
                }
                // Exact early exit. Candidates never decrease along the
                // scan (a run only restarts at a later boundary), so no
                // later window ends before `end`; every segment ends at
                // or before the period; and `approx_le` is monotone — a
                // larger left side or a smaller right side never turns
                // false into true. If `end` overruns the period, no later
                // segment can pass the test above.
                if !end.approx_le(self.period) {
                    return None;
                }
            } else {
                run_start = None;
            }
        }
        None
    }

    /// Iterate `(start, end, available)` segments — used by tests and
    /// pretty-printers.
    pub fn segments(&self) -> impl Iterator<Item = (Time, Time, Bw)> + '_ {
        (0..self.times.len()).map(move |i| (self.times[i], self.segment_end(i), self.avail[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> BandwidthProfile {
        BandwidthProfile::new(Time::secs(100.0), Bw::gib_per_sec(10.0))
    }

    #[test]
    fn fresh_profile_is_flat() {
        let p = profile();
        assert_eq!(p.segment_count(), 1);
        assert!(p
            .available_at(Time::secs(50.0))
            .approx_eq(Bw::gib_per_sec(10.0)));
        assert!(p
            .min_available(Time::ZERO, Time::secs(100.0))
            .approx_eq(Bw::gib_per_sec(10.0)));
    }

    #[test]
    fn reserve_splits_and_subtracts() {
        let mut p = profile();
        p.reserve(Time::secs(10.0), Time::secs(20.0), Bw::gib_per_sec(4.0))
            .unwrap();
        assert_eq!(p.segment_count(), 3);
        assert!(p
            .available_at(Time::secs(5.0))
            .approx_eq(Bw::gib_per_sec(10.0)));
        assert!(p
            .available_at(Time::secs(15.0))
            .approx_eq(Bw::gib_per_sec(6.0)));
        assert!(p
            .available_at(Time::secs(25.0))
            .approx_eq(Bw::gib_per_sec(10.0)));
    }

    #[test]
    fn overlapping_reservations_stack() {
        let mut p = profile();
        p.reserve(Time::secs(0.0), Time::secs(50.0), Bw::gib_per_sec(4.0))
            .unwrap();
        p.reserve(Time::secs(25.0), Time::secs(75.0), Bw::gib_per_sec(4.0))
            .unwrap();
        assert!(p
            .available_at(Time::secs(10.0))
            .approx_eq(Bw::gib_per_sec(6.0)));
        assert!(p
            .available_at(Time::secs(30.0))
            .approx_eq(Bw::gib_per_sec(2.0)));
        assert!(p
            .available_at(Time::secs(60.0))
            .approx_eq(Bw::gib_per_sec(6.0)));
        // A third overlapping reservation that would go negative must fail.
        let err = p.reserve(Time::secs(25.0), Time::secs(30.0), Bw::gib_per_sec(3.0));
        assert!(err.is_err());
    }

    #[test]
    fn reserve_rejects_out_of_range() {
        let mut p = profile();
        assert!(p
            .reserve(Time::secs(-1.0), Time::secs(5.0), Bw::gib_per_sec(1.0))
            .is_err());
        assert!(p
            .reserve(Time::secs(90.0), Time::secs(101.0), Bw::gib_per_sec(1.0))
            .is_err());
        assert!(p
            .reserve(Time::secs(5.0), Time::secs(5.0), Bw::gib_per_sec(1.0))
            .is_err());
    }

    #[test]
    fn first_fit_on_flat_profile_is_earliest() {
        let p = profile();
        let s = p
            .first_fit(Time::secs(12.0), Time::secs(30.0), Bw::gib_per_sec(10.0))
            .unwrap();
        assert!(s.approx_eq(Time::secs(12.0)));
    }

    #[test]
    fn first_fit_skips_saturated_window() {
        let mut p = profile();
        p.reserve(Time::secs(0.0), Time::secs(40.0), Bw::gib_per_sec(8.0))
            .unwrap();
        // Need 5 GiB/s for 10 s: the first 40 s only offer 2.
        let s = p
            .first_fit(Time::ZERO, Time::secs(10.0), Bw::gib_per_sec(5.0))
            .unwrap();
        assert!(s.approx_eq(Time::secs(40.0)));
        // But 2 GiB/s fits immediately.
        let s = p
            .first_fit(Time::ZERO, Time::secs(10.0), Bw::gib_per_sec(2.0))
            .unwrap();
        assert!(s.approx_eq(Time::ZERO));
    }

    #[test]
    fn first_fit_spans_segment_boundaries() {
        let mut p = profile();
        p.reserve(Time::secs(10.0), Time::secs(20.0), Bw::gib_per_sec(3.0))
            .unwrap();
        p.reserve(Time::secs(20.0), Time::secs(30.0), Bw::gib_per_sec(5.0))
            .unwrap();
        // Availability: [0,10)=10, [10,20)=7, [20,30)=5, [30,100)=10.
        // A 20-second window at 6 GiB/s fits at 0: min over [0,20) = 7.
        let s = p
            .first_fit(Time::ZERO, Time::secs(20.0), Bw::gib_per_sec(6.0))
            .unwrap();
        assert!(s.approx_eq(Time::ZERO));
        // 8 GiB/s for 20 s cannot fit before 30 ([10,30) is below 8).
        let s = p
            .first_fit(Time::ZERO, Time::secs(20.0), Bw::gib_per_sec(8.0))
            .unwrap();
        assert!(s.approx_eq(Time::secs(30.0)));
    }

    #[test]
    fn first_fit_none_when_nothing_fits() {
        let p = profile();
        assert!(p
            .first_fit(Time::ZERO, Time::secs(200.0), Bw::gib_per_sec(1.0))
            .is_none());
        assert!(p
            .first_fit(Time::secs(95.0), Time::secs(10.0), Bw::gib_per_sec(1.0))
            .is_none());
        assert!(p
            .first_fit(Time::secs(150.0), Time::secs(1.0), Bw::gib_per_sec(1.0))
            .is_none());
    }

    #[test]
    fn first_fit_zero_duration() {
        let p = profile();
        let s = p.first_fit(Time::secs(7.0), Time::ZERO, Bw::gib_per_sec(99.0));
        assert!(s.unwrap().approx_eq(Time::secs(7.0)));
    }

    #[test]
    fn min_available_across_boundaries() {
        let mut p = profile();
        p.reserve(Time::secs(30.0), Time::secs(60.0), Bw::gib_per_sec(9.0))
            .unwrap();
        let m = p.min_available(Time::secs(20.0), Time::secs(70.0));
        assert!(m.approx_eq(Bw::gib_per_sec(1.0)));
        let m = p.min_available(Time::secs(0.0), Time::secs(30.0));
        assert!(m.approx_eq(Bw::gib_per_sec(10.0)));
    }

    #[test]
    fn segments_iterator_covers_period() {
        let mut p = profile();
        p.reserve(Time::secs(10.0), Time::secs(20.0), Bw::gib_per_sec(1.0))
            .unwrap();
        let segs: Vec<_> = p.segments().collect();
        assert!(segs.first().unwrap().0.approx_eq(Time::ZERO));
        assert!(segs.last().unwrap().1.approx_eq(Time::secs(100.0)));
        for w in segs.windows(2) {
            assert!(w[0].1.approx_eq(w[1].0), "segments must tile the period");
        }
    }
}

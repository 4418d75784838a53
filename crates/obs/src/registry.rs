//! Metrics as plain values.
//!
//! A recorder owns its metrics: `u64` counters and
//! [`HistogramSnapshot`]s it records into through `&mut`, with no
//! sharing, lock or atomic (every recorder in the workspace runs on one
//! thread). [`MetricsSnapshot::new`] names them for a report, sorted by
//! name, and serializes as a JSON value tree.
//!
//! Histograms are fixed log₂-bucketed: bucket 0 holds the value `0`,
//! bucket `b ∈ 1..63` holds `[2^(b-1), 2^b)`, bucket 63 holds
//! everything from `2^62` up. Exact `count`/`sum`/`min`/`max` ride
//! alongside, so means are exact and quantiles are bucket-resolution
//! (an upper bound, clamped to the observed max) — plenty for latency
//! distributions spanning nanoseconds to seconds.

use serde::{Deserialize, Error, Serialize, Value};

/// Number of log₂ buckets in every histogram.
pub const HIST_BUCKETS: usize = 64;

/// Bucket index of a value: 0 for 0, else `floor(log2 v) + 1`, capped.
#[must_use]
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (saturating for the last one).
#[must_use]
pub fn bucket_high(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A log₂-bucketed histogram: exact moments plus the non-empty buckets
/// as `(bucket index, count)` pairs. Serializable (shard footers embed
/// these) and mergeable (the campaign merge aggregates them).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty log₂ buckets, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Record one observation (typically nanoseconds or bytes). The
    /// additions saturate at `u64::MAX`, as in [`Self::merge`].
    pub fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.add_to_bucket(bucket_index(v) as u32, 1);
    }

    /// Exact mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    /// Bucket-resolution quantile: the inclusive upper bound of the
    /// bucket holding the `q`-th observation, clamped to the observed
    /// extrema. `q` is in `[0, 1]`; returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(b, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // Not `clamp`: it panics when `min > max`, which only a
                // snapshot read back from a file can carry.
                return bucket_high(b as usize).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Fold another snapshot into this one (bucket-wise addition; the
    /// result is what one histogram observing both streams would hold).
    /// The additions saturate at `u64::MAX`: snapshots read back from
    /// partial files carry whatever counts the file holds.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &(b, n) in &other.buckets {
            self.add_to_bucket(b, n);
        }
    }

    /// Add `n` observations to bucket `b`, keeping the list ascending.
    fn add_to_bucket(&mut self, b: u32, n: u64) {
        match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(k) => self.buckets[k].1 = self.buckets[k].1.saturating_add(n),
            Err(k) => self.buckets.insert(k, (b, n)),
        }
    }
}

/// A named catalog of counters, gauges and histograms: what a surface
/// reports.
///
/// Serializes as `{"counters": {name: n}, "gauges": {name: n},
/// "histograms": {name: {count, sum, min, max, buckets}}}` — maps keyed
/// by metric name, in list order ([`MetricsSnapshot::new`] sorts it).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// A catalog of the given metrics, each list sorted by name so a
    /// report's order never depends on how its recorder lists them.
    #[must_use]
    pub fn new(
        mut counters: Vec<(String, u64)>,
        mut gauges: Vec<(String, u64)>,
        mut histograms: Vec<(String, HistogramSnapshot)>,
    ) -> Self {
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Self {
            counters,
            gauges,
            histograms,
        }
    }

    /// Look up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Look up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let pairs = |kv: &[(String, u64)]| {
            Value::Map(kv.iter().map(|(n, v)| (n.clone(), v.to_value())).collect())
        };
        Value::Map(vec![
            ("counters".to_string(), pairs(&self.counters)),
            ("gauges".to_string(), pairs(&self.gauges)),
            (
                "histograms".to_string(),
                Value::Map(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for MetricsSnapshot {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map().ok_or_else(|| Error::custom("expected map"))?;
        let section = |key: &str| -> Result<&[(String, Value)], Error> {
            serde::map_get(m, key)
                .as_map()
                .ok_or_else(|| Error::custom(format!("expected map at '{key}'")))
        };
        let pairs = |kv: &[(String, Value)]| -> Result<Vec<(String, u64)>, Error> {
            kv.iter()
                .map(|(n, v)| Ok((n.clone(), u64::from_value(v)?)))
                .collect()
        };
        Ok(Self {
            counters: pairs(section("counters")?)?,
            gauges: pairs(section("gauges")?)?,
            histograms: section("histograms")?
                .iter()
                .map(|(n, v)| Ok((n.clone(), HistogramSnapshot::from_value(v)?)))
                .collect::<Result<_, Error>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for v in [0u64, 1, 2, 3, 4, 5, 1023, 1024, u64::MAX] {
            let b = bucket_index(v);
            assert!(v <= bucket_high(b), "{v} above bucket {b} bound");
        }
    }

    #[test]
    fn histogram_moments_are_exact() {
        assert_eq!(HistogramSnapshot::default().min, 0, "0 while empty");
        let s = recorded(&[3, 5, 1000, 0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1008);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 252.0).abs() < 1e-9);
        // Sparse buckets in ascending order, whatever the record order.
        assert_eq!(s.buckets, vec![(0, 1), (2, 1), (3, 1), (10, 1)]);
        assert_eq!(recorded(&[7]).min, 7);
        // The additions saturate, like `merge`'s.
        let full = recorded(&[u64::MAX, u64::MAX]);
        assert_eq!((full.count, full.sum), (2, u64::MAX));
    }

    #[test]
    fn quantiles_clamp_to_observed_extrema() {
        let mut values = vec![100u64; 99];
        values.push(100_000);
        let s = recorded(&values);
        assert_eq!(s.quantile(0.5), 127); // bucket [64,127] holds 100
        assert_eq!(s.quantile(1.0), 100_000); // clamped to max
        assert!(s.quantile(0.99) <= 127);
    }

    #[test]
    fn merge_matches_single_histogram() {
        let mut merged = recorded(&[1, 7, 9, 100]);
        merged.merge(&recorded(&[0, 2, 5000]));
        assert_eq!(merged, recorded(&[1, 7, 9, 100, 0, 2, 5000]));
    }

    #[test]
    fn merge_and_quantile_saturate_counts_read_from_files() {
        // A partial footer may claim 2^53 observations; 2,049 of them
        // pool past `u64::MAX`.
        let footer = HistogramSnapshot {
            count: 1 << 53,
            sum: 1 << 53,
            min: 1,
            max: 1 << 20,
            buckets: vec![(3, 1 << 53), (21, 1 << 53)],
        };
        let mut pooled = HistogramSnapshot::default();
        for _ in 0..2_049 {
            pooled.merge(&footer);
        }
        assert_eq!((pooled.count, pooled.sum), (u64::MAX, u64::MAX));
        assert_eq!(pooled.buckets, vec![(3, u64::MAX), (21, u64::MAX)]);
        // The rank walk saturates too: the top quantile sits in the
        // second bucket, past a first bucket that already holds
        // `u64::MAX`.
        let walk = HistogramSnapshot {
            buckets: vec![(3, u64::MAX - 1), (21, u64::MAX - 1)],
            ..pooled.clone()
        };
        assert_eq!(walk.quantile(1.0), 1 << 20);
        // Extrema out of order (`min > max`) clamp without a panic.
        let inverted = HistogramSnapshot {
            min: 1 << 30,
            max: 0,
            ..footer
        };
        let _ = inverted.quantile(0.5);
    }

    #[test]
    fn snapshot_sorts_and_roundtrips() {
        let snap = MetricsSnapshot::new(
            vec![("z.second".into(), 1), ("a.first".into(), 4)],
            vec![("depth".into(), 11)],
            vec![("lat.ns".into(), recorded(&[250]))],
        );
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "z.second");
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("a.first"), Some(4));
        assert_eq!(back.gauge("depth"), Some(11));
        assert_eq!(back.histogram("lat.ns").unwrap().count, 1);
    }
}

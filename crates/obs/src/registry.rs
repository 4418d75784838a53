//! Lock-free metrics registry.
//!
//! Registration (name → handle) takes a `Mutex` once; the returned
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles are `Arc`-backed and
//! every observation after that is a relaxed atomic operation — no
//! allocation, no lock, safe from the engine hot loop and the daemon
//! request path. [`Registry::snapshot`] freezes the catalog into a
//! [`MetricsSnapshot`] with a stable (sorted) name order, serialized as
//! a JSON value tree.
//!
//! Histograms are fixed log₂-bucketed: bucket 0 holds the value `0`,
//! bucket `b ∈ 1..63` holds `[2^(b-1), 2^b)`, bucket 63 holds
//! everything from `2^62` up. Exact `count`/`sum`/`min`/`max` ride
//! alongside, so means are exact and quantiles are bucket-resolution
//! (an upper bound, clamped to the observed max) — plenty for latency
//! distributions spanning nanoseconds to seconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Error, Serialize, Value};

/// Number of log₂ buckets in every histogram.
pub const HIST_BUCKETS: usize = 64;

/// Monotonic counter handle (clone freely; all clones share the cell).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (tests, scratch).
    #[must_use]
    pub fn detached() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle (also supports a monotonic-peak update).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry (tests, scratch).
    #[must_use]
    pub fn detached() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    /// Set the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is larger (peak tracking).
    pub fn peak(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared histogram storage: fixed buckets plus exact scalar moments.
#[derive(Debug)]
struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

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

/// Log₂-bucketed histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    /// A histogram not attached to any registry (tests, scratch).
    #[must_use]
    pub fn detached() -> Self {
        Self(Arc::new(HistCore::new()))
    }

    /// Record one observation (typically nanoseconds or bytes).
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Freeze the current contents.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        let count = c.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                c.min.load(Ordering::Relaxed)
            },
            max: c.max.load(Ordering::Relaxed),
            buckets: c
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// A frozen histogram: exact moments plus the non-empty buckets as
/// `(bucket index, count)` pairs. Serializable (shard footers embed
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
            match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
                Ok(k) => self.buckets[k].1 = self.buckets[k].1.saturating_add(n),
                Err(k) => self.buckets.insert(k, (b, n)),
            }
        }
    }
}

/// The registry: a named catalog of counters, gauges and histograms.
///
/// `counter`/`gauge`/`histogram` are get-or-register: the same name
/// always yields a handle to the same cell, so independent modules can
/// share a metric by naming convention alone. Names are expected to be
/// dotted paths (`serve.journal.fsync.ns`); the `.ns` suffix marks
/// nanosecond histograms by convention.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// Panics on a poisoned registration lock (a prior registration
    /// panicked — unrecoverable programmer error).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, c)) = g.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::detached();
        g.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// Panics on a poisoned registration lock.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, c)) = g.gauges.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Gauge::detached();
        g.gauges.push((name.to_string(), c.clone()));
        c
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// Panics on a poisoned registration lock.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, c)) = g.histograms.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Histogram::detached();
        g.histograms.push((name.to_string(), c.clone()));
        c
    }

    /// Freeze every metric into a snapshot, names sorted for stable
    /// output.
    ///
    /// # Panics
    /// Panics on a poisoned registration lock.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().expect("metrics registry poisoned");
        let mut counters: Vec<(String, u64)> = g
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, u64)> =
            g.gauges.iter().map(|(n, c)| (n.clone(), c.get())).collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = g
            .histograms
            .iter()
            .map(|(n, c)| (n.clone(), c.snapshot()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A frozen view of a whole registry.
///
/// Serializes as `{"counters": {name: n}, "gauges": {name: n},
/// "histograms": {name: {count, sum, min, max, buckets}}}` — maps keyed
/// by metric name, insertion (= sorted) order preserved.
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
        let h = Histogram::detached();
        for v in [3u64, 5, 1000, 0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1008);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 252.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_clamp_to_observed_extrema() {
        let h = Histogram::detached();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(100_000);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 127); // bucket [64,127] holds 100
        assert_eq!(s.quantile(1.0), 100_000); // clamped to max
        assert!(s.quantile(0.99) <= 127);
    }

    #[test]
    fn merge_matches_single_histogram() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        let whole = Histogram::detached();
        for v in [1u64, 7, 9, 100] {
            a.record(v);
            whole.record(v);
        }
        for v in [0u64, 2, 5000] {
            b.record(v);
            whole.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
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
    fn registry_get_or_register_shares_cells() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").inc();
        assert_eq!(r.counter("x").get(), 3);
        r.gauge("g").set(7);
        r.gauge("g").peak(5);
        assert_eq!(r.gauge("g").get(), 7);
        r.histogram("h").record(9);
        assert_eq!(r.histogram("h").count(), 1);
    }

    #[test]
    fn snapshot_sorts_and_roundtrips() {
        let r = Registry::new();
        r.counter("z.second").inc();
        r.counter("a.first").add(4);
        r.gauge("depth").set(11);
        r.histogram("lat.ns").record(250);
        let snap = r.snapshot();
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

//! Order statistics over latency samples.

/// Nearest-rank percentile (`q` in `0..=1`) of `samples`, sorting in
/// place. The nearest-rank form always returns an observed value, so a
/// tail percentile never interpolates past the largest sample.
///
/// # Panics
/// Panics on an empty sample set or a `q` outside `0..=1`.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile rank {q} outside 0..=1"
    );
    samples.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (nearest rank), sorting in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(percentile(&mut xs, 1.0), 100.0);
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
        // 10 samples: p99 is the largest, p50 the fifth.
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut ten, 0.99), 10.0);
        assert_eq!(median(&mut ten), 5.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_set_panics() {
        percentile(&mut [], 0.5);
    }
}

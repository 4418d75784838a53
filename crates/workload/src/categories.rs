//! Application size categories of §4.1, calibrated on the Fig. 5 shape.
//!
//! The paper divides Intrepid's 2013 workload into:
//!
//! * **small** — fewer than 1,284 nodes,
//! * **large** — 1,285 to 4,584 nodes,
//! * **very large** — more than 4,584 nodes,
//!
//! and reports (Fig. 5) how much of the machine each class occupies per
//! day and what fraction of its runtime each class spends in I/O. The
//! figures themselves are images; the constants below are our calibration
//! of their shape (a substitution for the unpublished numbers): large jobs
//! dominate machine usage, small jobs dominate job *count*, and the I/O
//! time fraction grows with size class.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Size class of an application (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppCategory {
    /// `< 1,284` nodes.
    Small,
    /// `1,285 ..= 4,584` nodes.
    Large,
    /// `> 4,584` nodes.
    VeryLarge,
}

impl AppCategory {
    /// Upper node bound of the small class.
    pub const SMALL_MAX_NODES: u64 = 1_284;
    /// Upper node bound of the large class.
    pub const LARGE_MAX_NODES: u64 = 4_584;

    /// All categories, smallest first.
    pub const ALL: [AppCategory; 3] = [Self::Small, Self::Large, Self::VeryLarge];

    /// Classify a node count.
    #[must_use]
    pub fn of_nodes(nodes: u64) -> Self {
        if nodes <= Self::SMALL_MAX_NODES {
            Self::Small
        } else if nodes <= Self::LARGE_MAX_NODES {
            Self::Large
        } else {
            Self::VeryLarge
        }
    }

    /// Node range this category samples from (inclusive).
    #[must_use]
    pub fn node_range(&self) -> (u64, u64) {
        match self {
            Self::Small => (64, Self::SMALL_MAX_NODES),
            Self::Large => (Self::SMALL_MAX_NODES + 1, Self::LARGE_MAX_NODES),
            Self::VeryLarge => (Self::LARGE_MAX_NODES + 1, 16_384),
        }
    }

    /// Sample a node count uniformly from the category range.
    #[must_use]
    pub fn sample_nodes<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let (lo, hi) = self.node_range();
        rng.gen_range(lo..=hi)
    }

    /// Fraction of total system usage attributed to this category in the
    /// Fig. 5a shape (sums to 1).
    #[must_use]
    pub fn usage_share(&self) -> f64 {
        match self {
            Self::Small => 0.30,
            Self::Large => 0.55,
            Self::VeryLarge => 0.15,
        }
    }

    /// Range of the fraction of runtime spent doing I/O for this category
    /// (the Fig. 5b shape: bigger applications checkpoint more state).
    #[must_use]
    pub fn io_fraction_range(&self) -> (f64, f64) {
        match self {
            Self::Small => (0.05, 0.30),
            Self::Large => (0.10, 0.40),
            Self::VeryLarge => (0.15, 0.45),
        }
    }

    /// Sample an I/O time fraction for a job of this category.
    #[must_use]
    pub fn sample_io_fraction<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (lo, hi) = self.io_fraction_range();
        rng.gen_range(lo..hi)
    }

    /// Fraction of the *job count* attributed to this category (sums
    /// to 1). Derived from the usage shares divided by the mean node
    /// count of each class: most jobs are small even though large jobs
    /// dominate machine usage — the Fig. 5 relationship.
    #[must_use]
    pub fn job_share(&self) -> f64 {
        match self {
            Self::Small => 0.69,
            Self::Large => 0.29,
            Self::VeryLarge => 0.02,
        }
    }

    /// Sample a category according to the usage mixture (an application
    /// drawn this way represents a slice of *machine usage* — used by the
    /// congested-moment generator, where big applications dominate).
    #[must_use]
    pub fn sample_weighted<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::sample_with(rng, AppCategory::usage_share)
    }

    /// Sample a category according to the job-count mixture (used when
    /// synthesizing job logs, where small jobs dominate by count).
    #[must_use]
    pub fn sample_weighted_by_jobs<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::sample_with(rng, AppCategory::job_share)
    }

    fn sample_with<R: Rng + ?Sized>(rng: &mut R, weight: fn(&Self) -> f64) -> Self {
        let x: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for c in Self::ALL {
            acc += weight(&c);
            if x < acc {
                return c;
            }
        }
        Self::VeryLarge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classification_matches_paper_boundaries() {
        assert_eq!(AppCategory::of_nodes(100), AppCategory::Small);
        assert_eq!(AppCategory::of_nodes(1_284), AppCategory::Small);
        assert_eq!(AppCategory::of_nodes(1_285), AppCategory::Large);
        assert_eq!(AppCategory::of_nodes(4_584), AppCategory::Large);
        assert_eq!(AppCategory::of_nodes(4_585), AppCategory::VeryLarge);
    }

    #[test]
    fn sampled_nodes_stay_in_class() {
        let mut rng = StdRng::seed_from_u64(7);
        for c in AppCategory::ALL {
            for _ in 0..200 {
                let n = c.sample_nodes(&mut rng);
                assert_eq!(AppCategory::of_nodes(n), c, "{n} escaped {c:?}");
            }
        }
    }

    #[test]
    fn usage_shares_sum_to_one() {
        let sum: f64 = AppCategory::ALL.iter().map(AppCategory::usage_share).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let jobs: f64 = AppCategory::ALL.iter().map(AppCategory::job_share).sum();
        assert!((jobs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn job_mixture_is_dominated_by_small_jobs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut small = 0usize;
        let n = 10_000;
        for _ in 0..n {
            if AppCategory::sample_weighted_by_jobs(&mut rng) == AppCategory::Small {
                small += 1;
            }
        }
        let frac = small as f64 / n as f64;
        assert!((frac - 0.69).abs() < 0.02, "small job fraction {frac}");
    }

    #[test]
    fn io_fractions_in_range_and_monotone() {
        let mut rng = StdRng::seed_from_u64(3);
        for c in AppCategory::ALL {
            let (lo, hi) = c.io_fraction_range();
            assert!(lo < hi && lo > 0.0 && hi < 1.0);
            for _ in 0..100 {
                let f = c.sample_io_fraction(&mut rng);
                assert!((lo..hi).contains(&f));
            }
        }
        // Bigger classes do relatively more I/O (Fig. 5b shape).
        assert!(
            AppCategory::Small.io_fraction_range().1
                <= AppCategory::VeryLarge.io_fraction_range().1
        );
    }

    #[test]
    fn weighted_sampling_roughly_matches_shares() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        let n = 20_000;
        for _ in 0..n {
            match AppCategory::sample_weighted(&mut rng) {
                AppCategory::Small => counts[0] += 1,
                AppCategory::Large => counts[1] += 1,
                AppCategory::VeryLarge => counts[2] += 1,
            }
        }
        for (i, c) in AppCategory::ALL.iter().enumerate() {
            let frac = counts[i] as f64 / n as f64;
            assert!(
                (frac - c.usage_share()).abs() < 0.02,
                "{c:?}: {frac} vs {}",
                c.usage_share()
            );
        }
    }
}

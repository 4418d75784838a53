//! Host-speed reference.
//!
//! The VM this benchmark was sized on runs the same code up to ~1.7×
//! slower for minutes at a time (the neighbours' load), and every
//! workload moves together. The fastest of a few back-to-back repeats
//! removes short bursts but not these phases, so every duration the
//! end-to-end metrics use is also scaled to a nominal host: it is
//! multiplied by [`NOMINAL_MS`] over the time a fixed kernel, owned by
//! the benchmark and run right before the measured work, takes now.
//!
//! The kernel does what dominates the engine's per-event cost — a sort
//! of 32 integer keys and a chain of float divisions — because a
//! pointer-chasing loop does not slow down with the simulator: over
//! four minutes of one Fig. 6 seed on repeat, its 15 s window medians
//! moved 0.034–0.051 s while its ratio to this kernel stayed within
//! 2.02–2.31 and its ratio to a 4 MiB pointer chase spread 1.90–3.43.
//! The kernel is benchmark code, so a faster program still reads
//! faster.

use std::time::Instant;

/// Kernel rounds per timing (~15 ms on the 2-vCPU sizing VM).
const ROUNDS: u64 = 20_000;

/// The kernel's fastest time on a quiet 2-vCPU VM of the sizing kind,
/// ms: scaled durations read as if measured on that host.
pub const NOMINAL_MS: f64 = 14.7;

/// Re-key, sort and divide: one round per iteration.
fn kernel(rounds: u64) -> u64 {
    let mut keys: Vec<(u64, u64)> = (0..32u64)
        .map(|i| ((i * 2_654_435_761) % 1000, i))
        .collect();
    let mut x = 1.0f64;
    let mut acc = 0u64;
    for r in 0..rounds {
        for k in &mut keys {
            k.0 = k.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(r) >> 20;
        }
        keys.sort_unstable();
        acc = acc.wrapping_add(keys[0].1);
        for k in &keys {
            #[allow(clippy::cast_precision_loss)]
            let step = (k.0 & 7) as f64;
            x = x / (1.0 + step * 1e-9) + 1e-12;
        }
    }
    acc ^ x.to_bits()
}

/// Fastest of `repeats` kernel timings, ms.
#[must_use]
pub fn reference_ms(repeats: usize) -> f64 {
    (0..repeats.max(1))
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(ROUNDS)));
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Factor mapping a duration measured now onto the nominal host.
#[must_use]
pub fn scale() -> f64 {
    NOMINAL_MS / reference_ms(crate::REPEATS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(500), kernel(500));
        assert_ne!(kernel(500), kernel(501));
    }

    #[test]
    fn reference_time_is_positive() {
        let ms = reference_ms(1);
        assert!(ms > 0.0 && ms.is_finite());
    }
}

//! The platform model of §2: `N` identical unit-speed processors, each with
//! an I/O card of bandwidth `b`, in front of a centralized I/O system of
//! total bandwidth `B`, optionally supplemented by burst buffers.

use crate::error::ModelError;
use crate::interference::Interference;
use crate::units::{Bw, Bytes, Time};
use serde::{Deserialize, Serialize};

/// Burst-buffer tier description (§4.4: "burst buffers act as additional
/// bandwidth to disks: when congestion occurs, as long as the burst buffers
/// are not full, the applications can resume their execution right after
/// they transferred their I/O volume to the burst buffer").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstBufferSpec {
    /// Total burst-buffer capacity.
    pub capacity: Bytes,
    /// Aggregate bandwidth from compute nodes into the burst buffer.
    /// Typically several times the PFS bandwidth `B`.
    pub absorb_bw: Bw,
}

impl BurstBufferSpec {
    /// Validate physical plausibility.
    pub fn validate(&self) -> Result<(), ModelError> {
        if !self.capacity.is_finite() || self.capacity.get() <= 0.0 {
            return Err(ModelError::InvalidPlatform(format!(
                "burst buffer capacity must be finite and positive, got {}",
                self.capacity
            )));
        }
        if !self.absorb_bw.is_finite() || self.absorb_bw.get() <= 0.0 {
            return Err(ModelError::InvalidPlatform(format!(
                "burst buffer absorb bandwidth must be finite and positive, got {}",
                self.absorb_bw
            )));
        }
        Ok(())
    }
}

/// A parallel platform in the sense of §2.1.
///
/// Invariants (checked by [`Platform::validate`]):
/// * `procs ≥ 1`,
/// * `0 < proc_bw`, `0 < total_bw`, both finite,
/// * the optional burst buffer is itself valid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Human-readable name ("intrepid", "mira", …), used in reports.
    pub name: String,
    /// `N`: number of identical unit-speed processors.
    pub procs: u64,
    /// `b`: output bandwidth of each processor's I/O card.
    pub proc_bw: Bw,
    /// `B`: total bandwidth of the centralized I/O system.
    pub total_bw: Bw,
    /// Optional burst-buffer tier between compute nodes and the PFS.
    pub burst_buffer: Option<BurstBufferSpec>,
    /// Aggregate-bandwidth interference model (see [`Interference`]).
    pub interference: Interference,
}

impl Platform {
    /// A generic platform with no burst buffer and ideal sharing.
    #[must_use]
    pub fn new(name: impl Into<String>, procs: u64, proc_bw: Bw, total_bw: Bw) -> Self {
        Self {
            name: name.into(),
            procs,
            proc_bw,
            total_bw,
            burst_buffer: None,
            interference: Interference::None,
        }
    }

    /// Argonne's Intrepid (BlueGene/P, 40 racks, 2008-2014).
    ///
    /// Calibration: `b = 0.05 GiB/s/node`, `B = 64 GiB/s`, chosen so the
    /// paper's small/large application boundary (1,284/1,285 nodes, §4.1)
    /// coincides with the point where a single application saturates the
    /// PFS (`β·b = B` at β = 1,280).
    #[must_use]
    pub fn intrepid() -> Self {
        Self::new(
            "intrepid",
            40_960,
            Bw::gib_per_sec(0.05),
            Bw::gib_per_sec(64.0),
        )
    }

    /// Argonne's Mira (BlueGene/Q, 48 racks, 49,152 nodes, 240 GB/s PFS).
    #[must_use]
    pub fn mira() -> Self {
        Self::new(
            "mira",
            49_152,
            Bw::gib_per_sec(0.05),
            Bw::gib_per_sec(240.0),
        )
    }

    /// Argonne's Vesta (Mira's 2-rack development platform, §5: 2,048 nodes,
    /// 32,768 compute cores). PFS bandwidth scaled as 2/48 of Mira's.
    #[must_use]
    pub fn vesta() -> Self {
        Self::new("vesta", 2_048, Bw::gib_per_sec(0.05), Bw::gib_per_sec(10.0))
    }

    /// Builder-style: attach a burst buffer tier.
    #[must_use]
    pub fn with_burst_buffer(mut self, spec: BurstBufferSpec) -> Self {
        self.burst_buffer = Some(spec);
        self
    }

    /// Builder-style: attach the default burst buffer used when modelling
    /// the native Intrepid/Mira/Vesta schedulers: absorb bandwidth 4×`B`
    /// and one minute of full-PFS capacity.
    #[must_use]
    pub fn with_default_burst_buffer(self) -> Self {
        let spec = BurstBufferSpec {
            capacity: self.total_bw * Time::secs(60.0),
            absorb_bw: self.total_bw * 4.0,
        };
        self.with_burst_buffer(spec)
    }

    /// Builder-style: set the interference model.
    #[must_use]
    pub fn with_interference(mut self, interference: Interference) -> Self {
        self.interference = interference;
        self
    }

    /// Maximum bandwidth a single application on `procs` processors can
    /// draw: `min(β·b, B)` (§2.1).
    #[must_use]
    pub fn app_max_bw(&self, procs: u64) -> Bw {
        (self.proc_bw * procs as f64).min(self.total_bw)
    }

    /// Minimum (dedicated-mode) time to transfer `vol` for an application
    /// on `procs` processors: `time_io = vol / min(β·b, B)` (§2.1).
    #[must_use]
    pub fn dedicated_io_time(&self, procs: u64, vol: Bytes) -> Time {
        vol / self.app_max_bw(procs)
    }

    /// Number of processors above which one application saturates the PFS.
    /// Applications at or above this size are "large" for scheduling
    /// purposes: giving them the disk exclusively wastes nothing.
    #[must_use]
    pub fn saturation_procs(&self) -> u64 {
        (self.total_bw.get() / self.proc_bw.get()).ceil() as u64
    }

    /// Validate all platform invariants.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.procs == 0 {
            return Err(ModelError::InvalidPlatform(
                "platform must have at least one processor".into(),
            ));
        }
        if !self.proc_bw.is_finite() || self.proc_bw.get() <= 0.0 {
            return Err(ModelError::InvalidPlatform(format!(
                "per-processor bandwidth must be finite and positive, got {}",
                self.proc_bw
            )));
        }
        if !self.total_bw.is_finite() || self.total_bw.get() <= 0.0 {
            return Err(ModelError::InvalidPlatform(format!(
                "total I/O bandwidth must be finite and positive, got {}",
                self.total_bw
            )));
        }
        if let Some(bb) = &self.burst_buffer {
            bb.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for p in [Platform::intrepid(), Platform::mira(), Platform::vesta()] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn intrepid_saturation_matches_category_boundary() {
        // Calibration: the small/large boundary of §4.1 (1,284/1,285 nodes)
        // should sit at the PFS saturation point.
        let p = Platform::intrepid();
        assert_eq!(p.saturation_procs(), 1_280);
    }

    #[test]
    fn app_max_bw_is_min_of_cards_and_pfs() {
        let p = Platform::intrepid();
        // Small app: bound by its own I/O cards.
        let small = p.app_max_bw(100);
        assert!(small.approx_eq(Bw::gib_per_sec(5.0)));
        // Large app: bound by the PFS.
        let large = p.app_max_bw(10_000);
        assert!(large.approx_eq(p.total_bw));
    }

    #[test]
    fn dedicated_io_time_formula() {
        let p = Platform::new("test", 100, Bw::gib_per_sec(1.0), Bw::gib_per_sec(10.0));
        // 20 procs → min(20, 10) = 10 GiB/s; 50 GiB / 10 GiB/s = 5 s.
        let t = p.dedicated_io_time(20, Bytes::gib(50.0));
        assert!(t.approx_eq(Time::secs(5.0)));
        // 5 procs → min(5, 10) = 5 GiB/s; 50 GiB / 5 GiB/s = 10 s.
        let t = p.dedicated_io_time(5, Bytes::gib(50.0));
        assert!(t.approx_eq(Time::secs(10.0)));
    }

    #[test]
    fn validation_rejects_degenerate_platforms() {
        let mut p = Platform::intrepid();
        p.procs = 0;
        assert!(p.validate().is_err());

        let mut p = Platform::intrepid();
        p.proc_bw = Bw::ZERO;
        assert!(p.validate().is_err());

        let mut p = Platform::intrepid();
        p.total_bw = Bw::new(f64::NAN);
        assert!(p.validate().is_err());

        let p = Platform::intrepid().with_burst_buffer(BurstBufferSpec {
            capacity: Bytes::ZERO,
            absorb_bw: Bw::gib_per_sec(1.0),
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn default_burst_buffer_is_valid_and_bigger_than_pfs() {
        let p = Platform::mira().with_default_burst_buffer();
        p.validate().unwrap();
        let bb = p.burst_buffer.unwrap();
        assert!(bb.absorb_bw.get() > p.total_bw.get());
        assert!(bb.capacity.get() > 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Platform::vesta().with_default_burst_buffer();
        let j = serde_json::to_string(&p).unwrap();
        let back: Platform = serde_json::from_str(&j).unwrap();
        assert_eq!(p, back);
    }
}

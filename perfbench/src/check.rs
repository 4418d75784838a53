//! Output digests and the recorded references they are checked against.

use iosched_bench::{CampaignResult, RunMetrics};
use iosched_model::stats::Summary;

/// FNV-1a over 64-bit words: a bit-exact fingerprint of a result.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a float's bit pattern in.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Fold a string in, length-prefixed.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The fingerprint as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    fn summary(&mut self, s: &Summary) {
        self.word(s.n as u64);
        for x in [s.mean, s.std, s.min, s.max, s.median, s.p95, s.p99] {
            self.float(x);
        }
    }

    fn optional(&mut self, s: Option<&Summary>) {
        match s {
            Some(s) => {
                self.word(1);
                self.summary(s);
            }
            None => self.word(0),
        }
    }

    /// Fold every cell of a campaign result in, labels and all.
    pub fn campaign(&mut self, result: &CampaignResult) {
        self.text(&result.name);
        self.word(result.total_runs as u64);
        for cell in &result.cells {
            self.text(&cell.platform);
            self.text(&cell.workload);
            self.text(&cell.policy);
            self.word(cell.runs as u64);
            self.summary(&cell.sys_efficiency);
            self.summary(&cell.dilation);
            self.summary(&cell.upper_limit);
            self.summary(&cell.makespan_secs);
            self.optional(cell.utilization.as_ref());
            self.optional(cell.queue.as_ref());
            self.optional(cell.stretch.as_ref());
        }
    }

    /// Fold one run's campaign metrics in.
    pub fn run(&mut self, m: &RunMetrics) {
        for x in [m.sys_efficiency, m.dilation, m.upper_limit, m.makespan_secs] {
            self.float(x);
        }
        for x in [m.utilization, m.queue, m.stretch] {
            match x {
                Some(x) => self.float(x),
                None => self.word(u64::MAX),
            }
        }
    }
}

/// Digest of one campaign result.
#[must_use]
pub fn campaign_digest(result: &CampaignResult) -> String {
    let mut d = Digest::default();
    d.campaign(result);
    d.hex()
}

const REFERENCES: &str = include_str!("../reference.json");

/// The recorded digest for `workload` at `seed` with `seconds` of work,
/// if this configuration has one.
///
/// # Panics
/// Panics when the checked-in reference file is malformed.
#[must_use]
pub fn reference(workload: &str, seed: u64, seconds: u64) -> Option<String> {
    let table = serde_json::parse(REFERENCES).expect("reference.json is valid JSON");
    let entries = table.as_seq().expect("reference.json is a list");
    entries.iter().find_map(|e| {
        let m = e.as_map().expect("reference entries are objects");
        let field = |k: &str| serde::map_get(m, k);
        #[allow(clippy::cast_precision_loss)]
        let matches = field("workload").as_str() == Some(workload)
            && field("seed").as_f64() == Some(seed as f64)
            && field("seconds").as_f64() == Some(seconds as f64);
        matches.then(|| {
            field("digest")
                .as_str()
                .expect("digest is a string")
                .to_string()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_bit_exact() {
        let mut a = Digest::default();
        a.float(0.0);
        let mut b = Digest::default();
        b.float(-0.0);
        assert_ne!(a.hex(), b.hex(), "signed zeros differ in bits");
        let mut c = Digest::default();
        c.float(0.0);
        assert_eq!(a.hex(), c.hex());
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn references_parse() {
        assert!(reference("closed_campaign", 0, 20).is_some());
        assert!(reference("closed_campaign", 12_345, 20).is_none());
    }
}

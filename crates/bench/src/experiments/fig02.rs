//! **Fig. 2** — "Model instantiation for the Intrepid platform".
//!
//! The figure is an architecture diagram; its quantitative content is the
//! platform constants (`N`, `b`, `B`) which this module reports for all
//! three modelled machines, together with the derived saturation point
//! that fixes the §4.1 small/large boundary.

use iosched_model::Platform;

/// One platform row.
#[derive(Debug, Clone)]
pub struct PlatformRow {
    /// Machine name.
    pub name: String,
    /// Node count `N`.
    pub procs: u64,
    /// Per-node I/O bandwidth `b` (GiB/s).
    pub proc_bw_gib: f64,
    /// PFS bandwidth `B` (GiB/s).
    pub total_bw_gib: f64,
    /// Nodes needed to saturate the PFS (`⌈B/b⌉`).
    pub saturation_nodes: u64,
}

/// Constants of the three modelled platforms.
#[must_use]
pub fn run() -> Vec<PlatformRow> {
    [Platform::intrepid(), Platform::mira(), Platform::vesta()]
        .iter()
        .map(|p| PlatformRow {
            name: p.name.clone(),
            procs: p.procs,
            proc_bw_gib: p.proc_bw.as_gib_per_sec(),
            total_bw_gib: p.total_bw.as_gib_per_sec(),
            saturation_nodes: p.saturation_procs(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_platforms_reported() {
        let rows = run();
        assert_eq!(rows.len(), 3);
        let intrepid = &rows[0];
        assert_eq!(intrepid.name, "intrepid");
        // Intrepid's calibration: saturation at the small/large boundary.
        assert_eq!(intrepid.saturation_nodes, 1_280);
        assert!(rows[1].total_bw_gib > rows[0].total_bw_gib); // Mira > Intrepid
        assert!(rows[2].procs < rows[0].procs); // Vesta is tiny
    }
}

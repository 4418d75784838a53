//! The paper's striking result (§1, §4.4): the global scheduler *without*
//! burst buffers outperforms the native scheduler *with* them. This
//! example sweeps the burst-buffer capacity to show where the crossover
//! sits.
//!
//! ```sh
//! cargo run --release --example burst_buffer_study
//! ```

use hpc_io_sched::baselines::{native_platform, FairShare};
use hpc_io_sched::core::heuristics::MaxSysEff;
use hpc_io_sched::model::{BurstBufferSpec, Platform, Time};
use hpc_io_sched::sim::{simulate, SimConfig};
use hpc_io_sched::workload::congestion::congested_moment;

fn main() {
    let base = native_platform(Platform::intrepid());
    let apps = congested_moment(&base, 11);

    // Our heuristic, no burst buffer at all.
    let ours = simulate(&base, &apps, &mut MaxSysEff, &SimConfig::default()).unwrap();
    println!(
        "MaxSysEff without burst buffers: SysEfficiency {:.1}%  Dilation {:.2}\n",
        ours.report.sys_efficiency * 100.0,
        ours.report.dilation
    );

    println!("native scheduler WITH burst buffers of increasing capacity:");
    println!("capacity (s of B)   SysEfficiency    vs MaxSysEff/no-BB");
    println!("------------------------------------------------------");
    for secs in [0.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0] {
        let out = if secs == 0.0 {
            simulate(&base, &apps, &mut FairShare, &SimConfig::default()).unwrap()
        } else {
            let platform = base.clone().with_burst_buffer(BurstBufferSpec {
                capacity: base.total_bw * Time::secs(secs),
                absorb_bw: base.total_bw * 4.0,
            });
            let config = SimConfig {
                use_burst_buffer: true,
                ..SimConfig::default()
            };
            simulate(&platform, &apps, &mut FairShare, &config).unwrap()
        };
        let eff = out.report.sys_efficiency;
        let verdict = if eff >= ours.report.sys_efficiency {
            "native catches up"
        } else {
            "global scheduler still ahead"
        };
        println!("{secs:>16.0}   {:>12.1}%    {verdict}", eff * 100.0);
    }
}

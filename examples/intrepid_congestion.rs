//! Replay one Intrepid congested moment (the Table 1 setting) under every
//! §3.1 heuristic and the native scheduler.
//!
//! ```sh
//! cargo run --release --example intrepid_congestion [seed]
//! ```

use hpc_io_sched::baselines::{native_platform, FairShare};
use hpc_io_sched::core::heuristics::PolicyKind;
use hpc_io_sched::model::Platform;
use hpc_io_sched::sim::{simulate, SimConfig};
use hpc_io_sched::workload::congestion::{aggregate_demand, congested_moment};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let platform = native_platform(Platform::intrepid());
    let apps = congested_moment(&platform, seed);
    println!(
        "congested moment #{seed}: {} applications, aggregate I/O demand {:.2}×B\n",
        apps.len(),
        aggregate_demand(&platform, &apps) / platform.total_bw
    );

    println!("scheduler              SysEfficiency   Dilation");
    println!("------------------------------------------------");
    for kind in PolicyKind::fig6_roster() {
        let mut policy = kind.build();
        let out =
            simulate(&platform, &apps, &mut policy, &SimConfig::default()).expect("valid scenario");
        println!(
            "{:<22} {:>12.1}%  {:>8.2}",
            kind.name(),
            out.report.sys_efficiency * 100.0,
            out.report.dilation
        );
    }
    let config = SimConfig {
        use_burst_buffer: true,
        ..SimConfig::default()
    };
    let native = simulate(&platform, &apps, &mut FairShare, &config).expect("native run");
    println!(
        "{:<22} {:>12.1}%  {:>8.2}   (with burst buffers)",
        "intrepid (native)",
        native.report.sys_efficiency * 100.0,
        native.report.dilation
    );
    println!(
        "{:<22} {:>12.1}%  {:>8.2}",
        "upper limit",
        native.report.upper_limit * 100.0,
        1.0
    );
}

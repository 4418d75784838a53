//! The paper's §7 outlook: "a periodic scheduler might give even better
//! results than the [online] one proposed in this paper". Since the
//! scenario-aware policy registry, that comparison is *one campaign*:
//! the §3.1 online heuristics and the §3.2 periodic schedulers sit on
//! the same policy axis, and the runner builds each `periodic:*` entry's
//! timetable from the scenario it is about to simulate.
//!
//! ```sh
//! cargo run --release --example periodic_vs_online
//! ```

use iosched_bench::campaign::{run_campaign, CampaignSpec, PlatformSpec};
use iosched_bench::runner::ScenarioRunner;
use iosched_bench::PolicySpec;
use iosched_workload::WorkloadSpec;

fn main() {
    let spec = CampaignSpec {
        name: "periodic-vs-online".into(),
        platforms: vec![PlatformSpec::Preset("intrepid".into())],
        workloads: vec![WorkloadSpec::Congestion { seed: 0 }],
        // Both periodic entries use Congestion insertion: Throughput
        // insertion packs I/O-cheap applications exhaustively and can
        // starve an application on a congested moment, which the
        // registry rejects with a labeled error rather than replaying a
        // timetable that never grants it.
        policies: [
            "mindilation",
            "maxsyseff",
            "minmax-0.5",
            "periodic:cong",
            "periodic:cong:syseff",
        ]
        .iter()
        .map(|name| PolicySpec::parse(name).expect("roster name"))
        .collect(),
        // A handful of the Tables-1 congested moments.
        seeds: vec![21, 22, 23, 24],
        config: None,
        threads: None,
    };
    let result = run_campaign(&spec, &ScenarioRunner::new())
        .expect("congested moments schedule cleanly under both families");

    println!("== online heuristics vs offline periodic schedules (Intrepid congested moments) ==");
    for cell in &result.cells {
        println!(
            "  {:<24} {:<8} SysEfficiency {:>5.1}%   Dilation {:>6.2}   ({} cases)",
            cell.policy,
            if cell.policy.starts_with("periodic:") {
                "offline"
            } else {
                "online"
            },
            cell.sys_efficiency.mean * 100.0,
            cell.dilation.mean,
            cell.runs,
        );
    }
    println!("\n(the periodic schedule trades online adaptivity for a precomputed,");
    println!(" contention-free timetable — §7 expects it to complement the online mode;");
    println!(" the same sweep runs from JSON via `iosched campaign`)");
}

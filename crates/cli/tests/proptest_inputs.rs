//! Reader robustness for the three input files the CLI reads besides
//! serve journals (`crates/serve/tests/proptest_protocol.rs` covers
//! those): campaign specs, scenario specs and shard partial
//! directories. A valid file gets one byte replaced with a random
//! value, or is rebuilt from soup: whole values, valid and absurd
//! (integers at 2^53, NaN and infinities in their lossless string
//! forms), and junk tokens. Every reader returns `Ok` or `Err`; none
//! may panic. Nothing here runs a campaign or a scenario.

use iosched_bench::shard::{merge_dir, scan_dir};
use iosched_bench::CampaignSpec;
use iosched_cli::{cmd_merge, parse_scenario};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A campaign spec with every workload family, a custom platform, a
/// periodic and a control policy, and a full config.
const CAMPAIGN: &str = r#"{"name": "fuzz", "platforms": ["vesta", "native:intrepid", {"name": "t", "procs": 2048, "proc_bw": 53687091.2, "total_bw": 10737418240, "burst_buffer": {"capacity": 1e12, "absorb_bw": 1e11}, "interference": {"LocalityPenalty": {"alpha": 0.0625}}}], "workloads": [{"Congestion": {"seed": 0}}, {"Mix": {"config": {"small": 0, "large": 10, "very_large": 0, "io_ratio": 0.2, "work_range": [100, 400], "instances": [8, 12], "release_jitter": 1}, "seed": 0}}, {"Darshan": {"jobs": 4000, "log_seed": 3, "window_start": 0, "window_secs": 50000, "coverage": 0.5, "seed": 9}}, {"IorProfile": {"scenario": {"name": "512/256", "nodes": [512, 256]}, "params": {"work": 20, "io_ratio": 0.3, "iterations": 10}, "seed": 2}}, {"Perturbed": {"base": {"Congestion": {"seed": 0}}, "work_x": 0.2, "vol_x": 0.2, "seed": 5}}, {"Stream": {"arrivals": {"Mmpp": {"calm_rate": 0.001, "burst_rate": 0.01, "calm_secs": 3600, "burst_secs": 600}}, "template": {"Congestion": {"seed": 0}}, "stop": {"Apps": 40}, "seed": 13}}, {"Explicit": [{"id": 0, "release": 0, "procs": 256, "pattern": {"Periodic": {"work": 60, "vol": 1e11, "count": 3}}}]}], "policies": ["maxsyseff", "periodic:cong:tmax=32", "control:pi:kp=1:set=0.85"], "seeds": [0, 1, 2], "config": {"use_burst_buffer": false, "record_trace": false, "max_events": 10000000, "external_load": {"period": 240, "busy": 90, "fraction": 0.7}, "telemetry": true, "warmup": 2000, "horizon": null, "per_app_detail": true}, "threads": 2}"#;

/// A scenario spec: a custom platform, a stream over an explicit
/// template, a windowed config.
const SCENARIO: &str = r#"{"label": "fuzz", "platform": {"name": "t", "procs": 2048, "proc_bw": 53687091.2, "total_bw": 10737418240, "burst_buffer": null, "interference": "None"}, "workload": {"Stream": {"arrivals": {"Trace": {"gaps": [10, 0, 2.5]}}, "template": {"Explicit": [{"id": 0, "release": 0, "procs": 256, "pattern": {"Explicit": [{"work": 60, "vol": 1e11}, {"work": 0, "vol": 4096}]}}]}, "stop": {"Horizon": 5000}, "seed": 1}}, "policy": "periodic:throu:syseff:eps=0.05", "config": {"warmup": 100, "horizon": 4000, "telemetry": true}}"#;

const LABELS: &[&str] = &[r#""t""#, r#""""#, r#""\u0000é""#, "null", "7"];

const PLATFORMS: &[&str] = &[
    r#""vesta""#,
    r#""native:intrepid""#,
    r#""native:nowhere""#,
    r#""""#,
    r#"{"name": "t", "procs": 2048, "proc_bw": 53687091.2, "total_bw": 10737418240, "burst_buffer": null, "interference": "None"}"#,
    r#"{"name": "t", "procs": 9007199254740992, "proc_bw": "inf", "total_bw": "nan:7ff8000000000001", "burst_buffer": null, "interference": "None"}"#,
    r#"{"name": "t", "procs": 0, "proc_bw": -1, "total_bw": "-0", "burst_buffer": {"capacity": "inf", "absorb_bw": "-inf"}, "interference": {"LocalityPenalty": {"alpha": "nan:fff8000000000000"}}}"#,
    r#"{"name": "t", "procs": 1, "proc_bw": 1e308, "total_bw": 5e-324, "burst_buffer": {"capacity": 1e308, "absorb_bw": 1e308}, "interference": {"LocalityPenalty": {"alpha": 9007199254740992}}}"#,
];

const WORKLOADS: &[&str] = &[
    r#"{"Congestion": {"seed": 0}}"#,
    r#"{"Congestion": {"seed": 9007199254740992}}"#,
    r#"{"Mix": {"config": {"small": 50, "large": 5, "very_large": 0, "io_ratio": 0.2, "work_range": [100, 400], "instances": [8, 12], "release_jitter": 1}, "seed": 0}}"#,
    r#"{"Mix": {"config": {"small": 9007199254740992, "large": 9007199254740992, "very_large": 9007199254740992, "io_ratio": 0.2, "work_range": [100, 400], "instances": [8, 12], "release_jitter": 1}, "seed": 0}}"#,
    r#"{"Mix": {"config": {"small": 2, "large": 1, "very_large": 0, "io_ratio": "nan:7ff8000000000000", "work_range": [100, "inf"], "instances": [1, 9007199254740992], "release_jitter": "inf"}, "seed": 3}}"#,
    r#"{"Mix": {"config": {"small": 1, "large": 0, "very_large": 0, "io_ratio": 0.5, "work_range": [5e-324, 1e308], "instances": [9007199254740992, 9007199254740992], "release_jitter": 1e308}, "seed": 1}}"#,
    r#"{"Darshan": {"jobs": 100, "log_seed": 0, "window_start": 0, "window_secs": 1000, "coverage": 0.5, "seed": 0}}"#,
    r#"{"Darshan": {"jobs": 9007199254740992, "log_seed": 9007199254740992, "window_start": 0, "window_secs": 1000, "coverage": 0.5, "seed": 0}}"#,
    r#"{"Darshan": {"jobs": 100, "log_seed": 0, "window_start": "-inf", "window_secs": "inf", "coverage": "nan:7ff8000000000000", "seed": 0}}"#,
    r#"{"IorProfile": {"scenario": {"name": "x", "nodes": [9007199254740992, 0]}, "params": {"work": "inf", "io_ratio": 1e308, "iterations": 9007199254740992}, "seed": 0}}"#,
    r#"{"Perturbed": {"base": {"Congestion": {"seed": 0}}, "work_x": 1e308, "vol_x": "nan:7ff8000000000000", "seed": 0}}"#,
    r#"{"Perturbed": {"base": {"Perturbed": {"base": {"Stream": {"arrivals": {"Poisson": {"rate": 1}}, "template": {"Congestion": {"seed": 0}}, "stop": {"Apps": 1}, "seed": 0}}, "work_x": 0, "vol_x": 0, "seed": 0}}, "work_x": 0, "vol_x": 0, "seed": 0}}"#,
    r#"{"Stream": {"arrivals": {"Poisson": {"rate": "inf"}}, "template": {"Congestion": {"seed": 0}}, "stop": {"Apps": 9007199254740992}, "seed": 0}}"#,
    r#"{"Stream": {"arrivals": {"Mmpp": {"calm_rate": 0, "burst_rate": 5e-324, "calm_secs": 1e308, "burst_secs": "nan:7ff8000000000000"}}, "template": {"Stream": {"arrivals": {"Trace": {"gaps": []}}, "template": {"Congestion": {"seed": 0}}, "stop": {"Horizon": "inf"}, "seed": 0}}, "stop": {"Horizon": 1e308}, "seed": 0}}"#,
    r#"{"Stream": {"arrivals": {"Trace": {"gaps": ["-inf", 0, "nan:7ff8000000000000"]}}, "template": {"Explicit": []}, "stop": {"Apps": 0}, "seed": 0}}"#,
    r#"{"Explicit": [{"id": 0, "release": 0, "procs": 256, "pattern": {"Periodic": {"work": 60, "vol": 1e9, "count": 9007199254740992}}}]}"#,
    r#"{"Explicit": [{"id": 9007199254740992, "release": "inf", "procs": 9007199254740992, "pattern": {"Explicit": [{"work": "nan:7ff8000000000000", "vol": "-inf"}]}}]}"#,
    r#"{"Explicit": []}"#,
];

const POLICIES: &[&str] = &[
    r#""fairshare""#,
    r#""priority-minmax-0.50""#,
    r#""periodic:cong:tmax=9007199254740992""#,
    r#""periodic:throu:eps=nan""#,
    r#""control:pi:kp=inf:win=9007199254740992""#,
    r#""minmax-1e308""#,
    r#""priority-priority-fcfs""#,
    r#""""#,
    "7",
    "null",
];

const CONFIGS: &[&str] = &[
    "null",
    "{}",
    r#"{"max_events": 9007199254740992, "warmup": 1e308, "horizon": "inf"}"#,
    r#"{"warmup": "nan:7ff8000000000000", "horizon": "-0"}"#,
    r#"{"external_load": {"period": "inf", "busy": 1e308, "fraction": "nan:7ff8000000000000"}}"#,
    r#"{"external_load": {"period": 240, "busy": 90, "fraction": 0.7}, "use_burst_buffer": true}"#,
    r#"{"telemetry": 7, "per_app_detail": null}"#,
];

const SEEDS: &[&str] = &["0", "9007199254740992", "-1", "1.5", r#""inf""#];

const THREADS: &[&str] = &["null", "0", "9007199254740992", "-1"];

/// Fragments a junk value is drawn from: JSON punctuation, the formats'
/// own keys, hostile numbers and bytes that are not ASCII.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "null",
    "true",
    "-",
    "0",
    "9007199254740992",
    "2.5",
    "1e308",
    "1e999",
    "NaN",
    r#""nan:7ff8000000000000""#,
    r#""inf""#,
    "\u{0}",
    "\u{feff}",
    "é",
    r#""Stream""#,
    r#""Explicit""#,
    r#""Periodic""#,
    r#""count""#,
    r#""block""#,
    r#""done""#,
    r#""manifest""#,
    r#""block_time_ns""#,
];

/// One soup value: junk tokens (kind 0, one time in four) or a whole
/// value from the pool.
type Pick = (u64, usize, Vec<usize>);

fn pick() -> impl Strategy<Value = Pick> {
    (
        0u64..4,
        0usize..1_000,
        prop::collection::vec(0usize..TOKENS.len(), 0..6),
    )
}

fn render(pool: &[&str], (kind, k, junk): &Pick) -> String {
    if *kind == 0 {
        junk.iter().map(|&t| TOKENS[t]).collect()
    } else {
        pool[k % pool.len()].to_string()
    }
}

fn render_list(pool: &[&str], picks: &[Pick]) -> String {
    let items: Vec<String> = picks.iter().map(|p| render(pool, p)).collect();
    format!("[{}]", items.join(", "))
}

/// What `iosched campaign` reads before it runs anything: the parse and
/// the validation `CampaignSpec::from_json` runs, then the cell labels
/// and the block count. A partial's manifest embeds a spec that is
/// parsed but not validated before its blocks are counted, so those run
/// on every parsed spec.
fn read_campaign(text: &str) {
    if let Ok(spec) = serde_json::from_str::<CampaignSpec>(text) {
        let _ = spec.validate();
        assert_eq!(spec.cell_labels().len(), spec.cell_count());
        let _ = spec.block_count();
    }
}

/// What `iosched run` reads before it runs anything: the parse, the
/// platform and the workload's structure.
fn read_scenario(text: &str) {
    if let Ok(spec) = parse_scenario(text) {
        let _ = spec.platform.build();
        let _ = spec.workload.validate();
        let _ = spec.workload.label();
    }
}

fn replace_byte(text: &str, pos: u64, replacement: u64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let pos = usize::try_from(pos).unwrap() % bytes.len();
    bytes[pos] = u8::try_from(replacement).unwrap();
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn the_fuzzed_files_are_valid_before_mutation() {
    let campaign = CampaignSpec::from_json(CAMPAIGN).unwrap();
    assert_eq!(campaign.block_count(), 3 * 7 * 3);
    let scenario = parse_scenario(SCENARIO).unwrap();
    scenario.platform.build().unwrap();
    scenario.workload.validate().unwrap();
    let dir = partials_copy("valid");
    assert_eq!(merge_dir(&dir).unwrap().blocks, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One byte of a valid campaign spec replaced with a random value.
    #[test]
    fn a_replaced_campaign_byte_never_panics_the_reader(
        pos in 0u64..1_000_000,
        replacement in 0u64..256,
    ) {
        read_campaign(&replace_byte(CAMPAIGN, pos, replacement));
    }

    /// One byte of a valid scenario spec replaced with a random value.
    #[test]
    fn a_replaced_scenario_byte_never_panics_the_reader(
        pos in 0u64..1_000_000,
        replacement in 0u64..256,
    ) {
        read_scenario(&replace_byte(SCENARIO, pos, replacement));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A campaign spec assembled from soup: every axis a list of whole
    /// values or junk, every scalar one of them.
    #[test]
    fn campaign_soup_never_panics_the_reader(
        name in pick(),
        platforms in prop::collection::vec(pick(), 0..4),
        workloads in prop::collection::vec(pick(), 0..4),
        policies in prop::collection::vec(pick(), 0..4),
        seeds in prop::collection::vec(pick(), 0..4),
        config in pick(),
        threads in pick(),
    ) {
        let text = format!(
            r#"{{"name": {}, "platforms": {}, "workloads": {}, "policies": {}, "seeds": {}, "config": {}, "threads": {}}}"#,
            render(LABELS, &name),
            render_list(PLATFORMS, &platforms),
            render_list(WORKLOADS, &workloads),
            render_list(POLICIES, &policies),
            render_list(SEEDS, &seeds),
            render(CONFIGS, &config),
            render(THREADS, &threads),
        );
        read_campaign(&text);
    }

    /// A scenario spec assembled from soup.
    #[test]
    fn scenario_soup_never_panics_the_reader(
        label in pick(),
        platform in pick(),
        workload in pick(),
        policy in pick(),
        config in pick(),
    ) {
        let text = format!(
            r#"{{"label": {}, "platform": {}, "workload": {}, "policy": {}, "config": {}}}"#,
            render(LABELS, &label),
            render(PLATFORMS, &platform),
            render(WORKLOADS, &workload),
            render(POLICIES, &policy),
            render(CONFIGS, &config),
        );
        read_scenario(&text);
    }
}

/// Whole lines the partial soup draws from, besides the fixture's own:
/// block and footer lines with absurd values, and objects that are
/// neither.
const PARTIAL_LINES: &[&str] = &[
    r#"{"block":{"block":9007199254740992,"pass":0,"runs":[]}}"#,
    r#"{"block":{"block":0,"pass":9007199254740992,"runs":[{"eff":"nan:7ff8000000000000","dil":"inf","upper":"-inf","makespan":"-0","util":"inf","queue":"nan:fff0000000000001","stretch":1e308},{"eff":0,"dil":0,"upper":0,"makespan":0,"util":null,"queue":null,"stretch":null}]}}"#,
    r#"{"block":{"block":3,"pass":0,"runs":[{"eff":1e308,"dil":-1e308,"upper":5e-324,"makespan":0,"util":null,"queue":null,"stretch":null}]}}"#,
    r#"{"done":{"index":0,"pass":0,"blocks_done":9007199254740992,"wall_ms":9007199254740992,"cpu_ms":9007199254740992,"peak_rss_kib":9007199254740992,"block_time_ns":{"count":9007199254740992,"sum":9007199254740992,"min":1,"max":9007199254740992,"buckets":[[3,9007199254740992],[63,9007199254740992]]}}}"#,
    r#"{"done":{"index":1,"pass":3,"blocks_done":1,"wall_ms":0,"cpu_ms":null,"peak_rss_kib":null,"block_time_ns":{"count":2,"sum":7,"min":9007199254740992,"max":0,"buckets":[[4294967295,1],[0,0],[70,1]]}}}"#,
    r#"{"done":{"index":0,"pass":0,"blocks_done":0,"wall_ms":0,"cpu_ms":null,"peak_rss_kib":null,"block_time_ns":{"count":0,"sum":9007199254740992,"min":0,"max":0,"buckets":[]}}}"#,
    r#"{"done":7}"#,
    r#"{"block":null}"#,
    r#"{"manifest":{"index":0,"of":0,"pass":0,"blocks":9007199254740992,"spec_hash":"0","spec":null}}"#,
    "{}",
    "[]",
    "",
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/partials")
}

/// A fresh copy of the checked-in partial fixture.
fn partials_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "iosched-fuzz-partials-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    dir
}

fn fixture_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// What `iosched merge` reads: the scan, then the merge (`cmd_merge`
/// runs `merge_dir`) and its report.
fn read_partials(dir: &Path) {
    let _ = scan_dir(dir);
    let _ = cmd_merge(dir);
}

/// 2,049 footers of 2^53 timed blocks each hold more observations than
/// a `u64` counts: the pooled histogram saturates instead of
/// overflowing.
#[test]
fn footers_past_u64_observations_merge() {
    let dir = partials_copy("saturated");
    let files = fixture_files(&dir);
    let mut text = std::fs::read_to_string(&files[0]).unwrap();
    for _ in 0..2_049 {
        text.push_str(PARTIAL_LINES[3]);
        text.push('\n');
    }
    std::fs::write(&files[0], text).unwrap();
    let merged = merge_dir(&dir).unwrap();
    let pooled = merged.block_time_ns.unwrap();
    assert_eq!((pooled.count, pooled.sum), (u64::MAX, u64::MAX));
    let (_, report) = cmd_merge(&dir).unwrap();
    assert!(
        report.contains(&format!("block time over {} block(s)", u64::MAX)),
        "{report}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One byte of one partial file replaced with a random value.
    #[test]
    fn a_replaced_partial_byte_never_panics_a_merge(
        file in 0usize..2,
        pos in 0u64..1_000_000,
        replacement in 0u64..256,
    ) {
        let dir = partials_copy("replaced");
        let files = fixture_files(&dir);
        let path = &files[file];
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::write(path, replace_byte(&text, pos, replacement)).unwrap();
        read_partials(&dir);
    }

    /// Line soup spliced into one partial file after a random line:
    /// each soup line is junk (one time in eight), a fixture line or a
    /// line from `PARTIAL_LINES`, once or (one time in eight) 2,049
    /// times, enough footers to carry more than `u64::MAX` observations
    /// at 2^53 each. One soup in four ends without its newline, tearing
    /// the line after it.
    #[test]
    fn line_soup_in_a_partial_never_panics_a_merge(
        file in 0usize..2,
        at in 0usize..8,
        lines in prop::collection::vec(
            (
                0u64..8,
                0usize..1_000,
                prop::collection::vec(0usize..TOKENS.len(), 0..6),
                0u64..8,
            ),
            1..5,
        ),
        torn in 0u64..4,
    ) {
        let dir = partials_copy("soup");
        let files = fixture_files(&dir);
        let path = &files[file];
        let text = std::fs::read_to_string(path).unwrap();
        let own: Vec<&str> = text.lines().collect();
        let mut soup = String::new();
        for (kind, k, junk, many) in &lines {
            let line = match kind {
                0 => junk.iter().map(|&t| TOKENS[t]).collect(),
                1 | 2 => own[k % own.len()].to_string(),
                _ => PARTIAL_LINES[k % PARTIAL_LINES.len()].to_string(),
            };
            let repeat = if *many == 0 { 2_049 } else { 1 };
            for _ in 0..repeat {
                soup.push_str(&line);
                soup.push('\n');
            }
        }
        if torn == 0 {
            soup.pop();
        }
        let at = at % (own.len() + 1);
        let mut spliced: String = own[..at].iter().map(|l| format!("{l}\n")).collect();
        spliced.push_str(&soup);
        for line in &own[at..] {
            spliced.push_str(line);
            spliced.push('\n');
        }
        std::fs::write(path, spliced).unwrap();
        read_partials(&dir);
    }
}

//! Sharded, resumable campaign execution: partial files and the merge
//! reducer.
//!
//! A campaign's unit of sharded work is the **seed block** (see
//! [`CampaignSpec::block_count`]): block simulation is a pure function
//! of `(spec, block index)`, so any process — or any machine — can
//! compute any block and the results are bit-identical. A shard `i/n`
//! owns the strided subset `{b : b mod n == i}` and appends each
//! finished block to its own JSONL partial file
//! (`shard-<i>-of-<n>.jsonl`) through the append-log framing the serve
//! journal shares ([`iosched_model::append_log`]): one flushed `write(2)`
//! per `\n`-terminated line, so a partial file is always a valid prefix.
//! At worst a kill leaves a torn tail — the bytes after the last `\n`,
//! however much of the record they hold — which the scanner drops and
//! a resume truncates before appending.
//!
//! ## Why partials carry raw metrics, and the canonical merge order
//!
//! Cell summaries are *derived* state: `Summary::from_slice` folds a
//! cell's samples in seed order and its mean/std are sensitive to that
//! order at the ulp level, while `Summary::merge` (Chan's pairwise
//! update) produces yet another rounding. A reducer that merged
//! finished `CellSummary` values would therefore be bit-identical only
//! by luck. Instead each block line records the raw [`RunMetrics`] (one
//! per policy) and [`merge_records`] replays the exact single-process
//! fold — ascending global block order through the campaign's
//! `CellFold` — so the merged [`CampaignResult`] is bit-identical to
//! [`run_campaign`](crate::campaign::run_campaign), pooled quantile
//! reservoirs included. Ascending block order is the **pinned canonical
//! merge order**; shard file layout and arrival order never influence the
//! result.
//!
//! ## Resume
//!
//! Every shard file starts with a manifest line binding it to the
//! campaign via a spec hash ([`spec_hash`]: FNV-1a 64 over the spec's
//! canonical compact JSON) and embedding the full spec. On restart a
//! shard rescans the directory, refuses to mix partials from a
//! different spec, skips every block any file already finished
//! (resume works even across a changed shard count — block indices are
//! global), appends a fresh manifest line with an incremented `pass`
//! counter, and computes only the remainder. The old bytes are never
//! rewritten, which is what lets tests assert "finished blocks were not
//! re-simulated" from the file contents alone.

use crate::campaign::{fold_block_subset, CampaignResult, CampaignSpec, CellFold, RunMetrics};
use crate::runner::ScenarioRunner;
use iosched_model::append_log;
use iosched_obs::{HistogramSnapshot, Stopwatch};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Stable 64-bit fingerprint of a campaign spec: FNV-1a over the
/// compact canonical JSON image, rendered as 16 hex digits (a string,
/// because the JSON data model only holds integers exactly up to 2^53).
/// Two specs hash equal iff their serialized forms agree *after*
/// dropping pure execution knobs (`threads`), which change wall-clock
/// but never results — so a sweep can resume with a different thread
/// count. This is the rule a resume uses to decide whether existing
/// partials belong to the same campaign.
#[must_use]
pub fn spec_hash(spec: &CampaignSpec) -> String {
    let mut canon = spec.clone();
    canon.threads = None;
    let json = serde_json::to_string(&canon).unwrap_or_default();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The global block indices shard `index` of `of` owns: the strided
/// subset `{b : b mod of == index}`. Striding (rather than contiguous
/// ranges) balances heterogeneous block costs — in a load sweep the
/// high-λ blocks are many times slower than the low-λ ones and a
/// contiguous split would hand one shard all of them.
///
/// # Panics
/// Panics when `of` is zero or `index >= of`.
#[must_use]
pub fn shard_blocks(total: usize, index: usize, of: usize) -> Vec<usize> {
    assert!(of > 0, "shard count must be at least 1");
    assert!(index < of, "shard index {index} out of range 0..{of}");
    (index..total).step_by(of).collect()
}

/// The partial file shard `index` of `of` appends to.
#[must_use]
pub fn partial_path(dir: &Path, index: usize, of: usize) -> PathBuf {
    dir.join(format!("shard-{index}-of-{of}.jsonl"))
}

// --- Lossless float encoding. -------------------------------------------
//
// The vendored serde_json prints non-finite floats as `null` and `-0.0`
// as `0`; both would silently break the bit-identity contract, so the
// partial format uses the shared lossless encoding
// ([`iosched_model::lossless`]): the four lossy cases become strings,
// everything else a plain JSON number (which round-trips exactly).

use iosched_model::lossless::{
    float_from_value, float_to_value, opt_float_from_value, opt_float_to_value,
};

impl serde::Serialize for RunMetrics {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("eff".into(), float_to_value(self.sys_efficiency)),
            ("dil".into(), float_to_value(self.dilation)),
            ("upper".into(), float_to_value(self.upper_limit)),
            ("makespan".into(), float_to_value(self.makespan_secs)),
            ("util".into(), opt_float_to_value(self.utilization)),
            ("queue".into(), opt_float_to_value(self.queue)),
            ("stretch".into(), opt_float_to_value(self.stretch)),
        ])
    }
}

impl serde::Deserialize for RunMetrics {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a run-metrics object"))?;
        Ok(Self {
            sys_efficiency: float_from_value(serde::map_get(map, "eff"))
                .map_err(|e| e.at("eff"))?,
            dilation: float_from_value(serde::map_get(map, "dil")).map_err(|e| e.at("dil"))?,
            upper_limit: float_from_value(serde::map_get(map, "upper"))
                .map_err(|e| e.at("upper"))?,
            makespan_secs: float_from_value(serde::map_get(map, "makespan"))
                .map_err(|e| e.at("makespan"))?,
            utilization: opt_float_from_value(serde::map_get(map, "util"))
                .map_err(|e| e.at("util"))?,
            queue: opt_float_from_value(serde::map_get(map, "queue")).map_err(|e| e.at("queue"))?,
            stretch: opt_float_from_value(serde::map_get(map, "stretch"))
                .map_err(|e| e.at("stretch"))?,
        })
    }
}

// --- Partial-file line types. -------------------------------------------

/// First line of every shard incarnation: binds the file to a campaign
/// and records what the shard believes the world looks like.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Shard index within `0..of`.
    pub index: usize,
    /// Shard count this incarnation was launched with.
    pub of: usize,
    /// Incarnation counter: 0 for a fresh shard, +1 per resume of the
    /// same file. Resumed block lines carry the new pass, so "finished
    /// blocks were not re-simulated" is checkable from the file alone.
    pub pass: usize,
    /// Total seed blocks of the campaign ([`CampaignSpec::block_count`]).
    pub blocks: usize,
    /// [`spec_hash`] of `spec` — consistency check and resume guard.
    pub spec_hash: String,
    /// The full campaign spec, embedded so a partial directory is
    /// self-contained: `iosched merge DIR` needs no other input.
    pub spec: CampaignSpec,
}

/// One finished seed block: the raw per-run metrics of every policy, in
/// policy order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockRecord {
    /// Global block index (see [`CampaignSpec::block_count`]).
    pub block: usize,
    /// Incarnation that computed this block.
    pub pass: usize,
    /// One [`RunMetrics`] per policy, in the spec's policy order.
    pub runs: Vec<RunMetrics>,
}

/// Final line of a shard incarnation that ran to completion; absent
/// after a crash/SIGKILL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardFooter {
    /// Shard index.
    pub index: usize,
    /// Incarnation this footer closes.
    pub pass: usize,
    /// Blocks computed by this incarnation (skipped ones not counted).
    pub blocks_done: usize,
    /// Wall-clock time of the incarnation, milliseconds.
    pub wall_ms: u64,
    /// Process CPU time (`/proc/self/schedstat`), milliseconds; `None`
    /// off Linux.
    pub cpu_ms: Option<u64>,
    /// Peak resident set (`VmHWM` of `/proc/self/status`), KiB; `None`
    /// off Linux.
    pub peak_rss_kib: Option<u64>,
    /// Per-block wall-time distribution (nanoseconds per finished
    /// block, write included). `None` when the incarnation computed
    /// nothing — and in partials recorded before the field existed,
    /// which still parse.
    pub block_time_ns: Option<HistogramSnapshot>,
}

/// One line of a shard partial file.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardLine {
    /// Incarnation header.
    Manifest(ShardManifest),
    /// A finished seed block.
    Block(BlockRecord),
    /// Clean-exit footer.
    Done(ShardFooter),
}

impl serde::Serialize for ShardLine {
    fn to_value(&self) -> serde::Value {
        let (key, inner) = match self {
            Self::Manifest(m) => ("manifest", m.to_value()),
            Self::Block(b) => ("block", b.to_value()),
            Self::Done(f) => ("done", f.to_value()),
        };
        serde::Value::Map(vec![(key.to_string(), inner)])
    }
}

impl serde::Deserialize for ShardLine {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_map() {
            Some([(key, inner)]) if key == "manifest" => {
                ShardManifest::from_value(inner).map(Self::Manifest)
            }
            Some([(key, inner)]) if key == "block" => {
                BlockRecord::from_value(inner).map(Self::Block)
            }
            Some([(key, inner)]) if key == "done" => ShardFooter::from_value(inner).map(Self::Done),
            _ => Err(serde::Error::custom(
                "expected a one-key object tagged manifest/block/done",
            )),
        }
    }
}

// --- Scanning. ----------------------------------------------------------

/// Everything a partial directory contains, after validation.
#[derive(Debug, Default)]
pub struct PartialScan {
    /// `*.jsonl` files read.
    pub files: usize,
    /// Every manifest line, file order then line order.
    pub manifests: Vec<ShardManifest>,
    /// Finished blocks by global index. First occurrence wins; block
    /// results are deterministic, so duplicates (if any) are identical
    /// anyway.
    pub blocks: BTreeMap<usize, BlockRecord>,
    /// Clean-exit footers, file order then line order.
    pub footers: Vec<ShardFooter>,
    /// Block lines whose index was already present (0 unless two
    /// shards of overlapping plans both finished a block).
    pub duplicates: usize,
    /// Files whose torn tail (bytes after the last `\n`) was dropped.
    pub torn: usize,
}

impl PartialScan {
    /// The campaign every manifest in the directory agrees on, if any
    /// manifest exists.
    #[must_use]
    pub fn campaign(&self) -> Option<&ShardManifest> {
        self.manifests.first()
    }
}

fn parse_lines(path: &Path, text: &str, scan: &mut PartialScan) -> Result<(), String> {
    let (lines, torn) = append_log::split(text);
    if !torn.is_empty() {
        scan.torn += 1;
    }
    for (i, line) in lines.enumerate() {
        match serde_json::from_str::<ShardLine>(line) {
            Ok(ShardLine::Manifest(m)) => {
                if spec_hash(&m.spec) != m.spec_hash {
                    return Err(format!(
                        "{}: manifest spec hash {} does not match its embedded spec ({})",
                        path.display(),
                        m.spec_hash,
                        spec_hash(&m.spec)
                    ));
                }
                if m.blocks != m.spec.block_count() {
                    return Err(format!(
                        "{}: manifest claims {} blocks but its spec has {}",
                        path.display(),
                        m.blocks,
                        m.spec.block_count()
                    ));
                }
                scan.manifests.push(m);
            }
            Ok(ShardLine::Block(b)) => match scan.blocks.entry(b.block) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(b);
                }
                std::collections::btree_map::Entry::Occupied(_) => scan.duplicates += 1,
            },
            Ok(ShardLine::Done(f)) => scan.footers.push(f),
            Err(e) => {
                return Err(format!(
                    "{}: corrupt line {} (not a trailing torn write): {e}",
                    path.display(),
                    i + 1
                ))
            }
        }
    }
    Ok(())
}

/// Read every `*.jsonl` partial in `dir` (sorted by file name, so scans
/// are deterministic), dropping each file's torn tail, and
/// check internal consistency: every manifest must carry the same spec
/// hash, and each hash must match its embedded spec. A missing
/// directory scans as empty.
pub fn scan_dir(dir: &Path) -> Result<PartialScan, String> {
    let mut scan = PartialScan::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        parse_lines(&path, &text, &mut scan)?;
        scan.files += 1;
    }
    if let Some(first) = scan.manifests.first() {
        if let Some(other) = scan
            .manifests
            .iter()
            .find(|m| m.spec_hash != first.spec_hash)
        {
            return Err(format!(
                "partial directory mixes campaigns: spec hash {} vs {}",
                first.spec_hash, other.spec_hash
            ));
        }
        if let Some(stray) = scan.blocks.values().find(|b| b.block >= first.blocks) {
            return Err(format!(
                "block {} out of range (campaign has {} blocks)",
                stray.block, first.blocks
            ));
        }
    }
    Ok(scan)
}

// --- Shard execution. ---------------------------------------------------

/// What [`run_shard`] did, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index.
    pub index: usize,
    /// Shard count.
    pub of: usize,
    /// Incarnation this run wrote.
    pub pass: usize,
    /// Blocks the strided plan assigns this shard.
    pub assigned: usize,
    /// Assigned blocks some partial had already finished.
    pub skipped: usize,
    /// Blocks computed (and appended) by this run.
    pub computed: usize,
    /// The partial file written.
    pub path: PathBuf,
}

fn proc_peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn proc_cpu_ms() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1_000_000)
}

/// Compute the [`BlockRecord`]s of an arbitrary block subset in memory —
/// the pure core of [`run_shard`], also what property tests use to
/// exercise arbitrary (non-strided) partitions.
pub fn block_records(
    spec: &CampaignSpec,
    runner: &ScenarioRunner,
    blocks: &[usize],
    pass: usize,
) -> Result<Vec<BlockRecord>, String> {
    fold_block_subset(
        spec,
        runner,
        blocks,
        Vec::with_capacity(blocks.len()),
        |mut acc, b, outcomes| {
            acc.push(BlockRecord {
                block: b,
                pass,
                runs: outcomes.iter().map(RunMetrics::from_outcome).collect(),
            });
            acc
        },
    )
}

/// Run shard `index` of `of` of a campaign, appending finished blocks
/// to `dir`'s partial file as they complete (one flushed line per
/// block) and resuming from whatever the directory already holds:
/// blocks finished by *any* partial — even from a run with a different
/// shard count — are skipped, never recomputed.
///
/// `progress` is called after each computed block with
/// `(global block index, computed so far, blocks to compute)`.
pub fn run_shard(
    spec: &CampaignSpec,
    index: usize,
    of: usize,
    dir: &Path,
    runner: &ScenarioRunner,
    mut progress: impl FnMut(usize, usize, usize),
) -> Result<ShardReport, String> {
    if of == 0 {
        return Err("shard count must be at least 1".into());
    }
    if index >= of {
        return Err(format!("shard index {index} out of range 0..{of}"));
    }
    spec.validate()?;
    let hash = spec_hash(spec);
    let started = std::time::Instant::now();

    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let scan = scan_dir(dir)?;
    if let Some(existing) = scan.campaign() {
        if existing.spec_hash != hash {
            return Err(format!(
                "{} holds partials of a different campaign (spec hash {} vs {}); \
                 point --out at a fresh directory or delete the stale partials",
                dir.display(),
                existing.spec_hash,
                hash
            ));
        }
    }

    let path = partial_path(dir, index, of);
    // Incarnation counter: one past the newest pass this file has seen.
    let pass = scan
        .manifests
        .iter()
        .filter(|m| partial_path(dir, m.index, m.of) == path)
        .map(|m| m.pass + 1)
        .max()
        .unwrap_or(0);

    let assigned = shard_blocks(spec.block_count(), index, of);
    let todo: Vec<usize> = assigned
        .iter()
        .copied()
        .filter(|b| !scan.blocks.contains_key(b))
        .collect();
    let skipped = assigned.len() - todo.len();

    // A kill can tear the line that was in flight: `scan_dir` dropped
    // it, and reopening truncates it, so this incarnation's manifest
    // starts on a line boundary.
    let mut file = append_log::reopen(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let write_line = |file: &mut std::fs::File, line: &ShardLine| -> Result<(), String> {
        let text = serde_json::to_string(line).map_err(|e| e.to_string())?;
        append_log::append(file, text).map_err(|e| format!("{}: {e}", path.display()))
    };

    write_line(
        &mut file,
        &ShardLine::Manifest(ShardManifest {
            index,
            of,
            pass,
            blocks: spec.block_count(),
            spec_hash: hash,
            spec: spec.clone(),
        }),
    )?;

    let mut computed = 0usize;
    let mut io_error: Option<String> = None;
    // Per-block wall time (compute + serialized write), lapped at each
    // block completion — the fold hands blocks back in order, so the
    // inter-completion gap is the block's cost.
    let mut block_hist = HistogramSnapshot::default();
    let mut block_watch = Stopwatch::start();
    fold_block_subset(spec, runner, &todo, (), |(), b, outcomes| {
        if io_error.is_some() {
            return;
        }
        let record = BlockRecord {
            block: b,
            pass,
            runs: outcomes.iter().map(RunMetrics::from_outcome).collect(),
        };
        match write_line(&mut file, &ShardLine::Block(record)) {
            Ok(()) => {
                computed += 1;
                block_watch.lap(&mut block_hist);
                progress(b, computed, todo.len());
            }
            Err(e) => io_error = Some(e),
        }
    })?;
    if let Some(e) = io_error {
        return Err(e);
    }

    #[allow(clippy::cast_possible_truncation)]
    let wall_ms = started.elapsed().as_millis() as u64;
    write_line(
        &mut file,
        &ShardLine::Done(ShardFooter {
            index,
            pass,
            blocks_done: computed,
            wall_ms,
            cpu_ms: proc_cpu_ms(),
            peak_rss_kib: proc_peak_rss_kib(),
            block_time_ns: (computed > 0).then_some(block_hist),
        }),
    )?;

    Ok(ShardReport {
        index,
        of,
        pass,
        assigned: assigned.len(),
        skipped,
        computed,
        path,
    })
}

// --- Merging. -----------------------------------------------------------

/// Output of [`merge_dir`]: the reduced campaign plus provenance.
#[derive(Debug)]
pub struct MergeReport {
    /// The campaign the partials belong to (from the manifests).
    pub spec: CampaignSpec,
    /// The merged result — bit-identical to
    /// [`run_campaign`](crate::campaign::run_campaign) on `spec`.
    pub result: CampaignResult,
    /// Partial files read.
    pub files: usize,
    /// Blocks merged.
    pub blocks: usize,
    /// Clean-exit footers found (per-shard wall/CPU/RSS provenance).
    pub footers: Vec<ShardFooter>,
    /// Per-block wall-time distribution pooled across every footer that
    /// recorded one; `None` when no footer did (pre-field partials or
    /// all-crashed shards). Execution provenance only — never part of
    /// the bit-identity surface.
    pub block_time_ns: Option<HistogramSnapshot>,
}

/// Reduce block records into a [`CampaignResult`] by replaying the
/// canonical fold: ascending global block order through the campaign's
/// cell fold — bit-identical to
/// [`run_campaign`](crate::campaign::run_campaign), reservoirs included.
/// Duplicate block indices keep the first occurrence; coverage must be
/// exact (every block `0..block_count` present exactly once after
/// dedup) or the merge refuses.
pub fn merge_records(
    spec: &CampaignSpec,
    records: impl IntoIterator<Item = BlockRecord>,
) -> Result<CampaignResult, String> {
    spec.validate()?;
    let total = spec.block_count();
    let mut by_block: BTreeMap<usize, BlockRecord> = BTreeMap::new();
    for record in records {
        if record.block >= total {
            return Err(format!(
                "block {} out of range (campaign has {total} blocks)",
                record.block
            ));
        }
        if record.runs.len() != spec.policies.len() {
            return Err(format!(
                "block {} has {} runs but the campaign has {} policies",
                record.block,
                record.runs.len(),
                spec.policies.len()
            ));
        }
        by_block.entry(record.block).or_insert(record);
    }
    if by_block.len() != total {
        let missing: Vec<usize> = (0..total).filter(|b| !by_block.contains_key(b)).collect();
        return Err(format!(
            "incomplete partials: {} of {total} blocks missing (first missing: {:?})",
            missing.len(),
            &missing[..missing.len().min(8)]
        ));
    }
    let mut fold = CellFold::new(spec);
    for (b, record) in &by_block {
        fold.push_block(*b, &record.runs);
    }
    Ok(CampaignResult {
        name: spec.name.clone(),
        total_runs: spec.total_runs(),
        cells: fold.into_cells(),
    })
}

/// Scan a partial directory and reduce it into the campaign result (see
/// [`merge_records`] for the bit-identity contract). The spec comes
/// from the embedded manifests, so the directory is self-contained.
pub fn merge_dir(dir: &Path) -> Result<MergeReport, String> {
    let scan = scan_dir(dir)?;
    let spec = scan
        .campaign()
        .ok_or_else(|| format!("{}: no shard manifests found", dir.display()))?
        .spec
        .clone();
    let blocks = scan.blocks.len();
    let result = merge_records(&spec, scan.blocks.into_values())?;
    let block_time_ns = pooled_block_time(&scan.footers);
    Ok(MergeReport {
        spec,
        result,
        files: scan.files,
        blocks,
        footers: scan.footers,
        block_time_ns,
    })
}

/// Pool the per-block timing of every footer that carries one.
#[must_use]
pub fn pooled_block_time(footers: &[ShardFooter]) -> Option<HistogramSnapshot> {
    let mut pooled: Option<HistogramSnapshot> = None;
    for snap in footers.iter().filter_map(|f| f.block_time_ns.as_ref()) {
        pooled
            .get_or_insert_with(HistogramSnapshot::default)
            .merge(snap);
    }
    pooled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::PolicySpec;
    use iosched_model::{AppSpec, Bytes, Time};
    use iosched_workload::WorkloadSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iosched-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_campaign() -> CampaignSpec {
        CampaignSpec {
            name: "shard-unit".into(),
            platforms: vec![crate::campaign::PlatformSpec::Preset("vesta".into())],
            workloads: vec![WorkloadSpec::Congestion { seed: 0 }],
            policies: vec![
                PolicySpec::parse("maxsyseff").unwrap(),
                PolicySpec::FairShare,
            ],
            seeds: vec![1, 2, 3, 4],
            config: None,
            threads: None,
        }
    }

    #[test]
    fn strided_plan_partitions_the_blocks() {
        for of in 1..=5 {
            let mut all: Vec<usize> = (0..of).flat_map(|i| shard_blocks(13, i, of)).collect();
            all.sort_unstable();
            assert_eq!(all, (0..13).collect::<Vec<_>>(), "of={of}");
        }
        assert_eq!(shard_blocks(10, 1, 4), vec![1, 5, 9]);
        assert!(shard_blocks(2, 3, 4).is_empty());
    }

    #[test]
    fn floats_roundtrip_losslessly_through_lines() {
        for x in [
            1.0,
            -0.0,
            0.1,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_dead_beef_0001), // payload NaN
            f64::MIN_POSITIVE,
        ] {
            let json = serde_json::to_string(&float_to_value(x)).unwrap();
            let value: serde::Value = serde_json::from_str(&json).unwrap();
            let back = float_from_value(&value).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} reparsed as {back}");
        }
    }

    #[test]
    fn spec_hash_tracks_spec_identity() {
        let spec = small_campaign();
        assert_eq!(spec_hash(&spec), spec_hash(&spec.clone()));
        assert_eq!(spec_hash(&spec).len(), 16);
        let mut other = spec.clone();
        other.seeds.push(99);
        assert_ne!(spec_hash(&spec), spec_hash(&other));
        // Execution knobs don't change campaign identity.
        let mut threaded = spec.clone();
        threaded.threads = Some(7);
        assert_eq!(spec_hash(&spec), spec_hash(&threaded));
    }

    #[test]
    fn shards_merge_bit_identical_to_single_process() {
        let spec = small_campaign();
        let runner = ScenarioRunner::with_threads(1);
        let dir = tmp_dir("merge");
        for i in 0..3 {
            let report = run_shard(&spec, i, 3, &dir, &runner, |_, _, _| {}).unwrap();
            assert_eq!(report.pass, 0);
            assert_eq!(report.skipped, 0);
            assert_eq!(report.computed + report.skipped, report.assigned);
        }
        let merged = merge_dir(&dir).unwrap();
        let single = run_campaign(&spec, &runner).unwrap();
        assert_eq!(merged.result, single);
        assert_eq!(merged.blocks, spec.block_count());
        assert_eq!(merged.footers.len(), 3);
        // Re-running every shard skips everything and still merges clean.
        for i in 0..3 {
            let report = run_shard(&spec, i, 3, &dir, &runner, |_, _, _| {}).unwrap();
            assert_eq!(report.pass, 1);
            assert_eq!(report.computed, 0);
            assert_eq!(report.skipped, report.assigned);
        }
        assert_eq!(merge_dir(&dir).unwrap().result, single);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn footers_stamp_per_block_timing_and_merge_pools_it() {
        let spec = small_campaign();
        let runner = ScenarioRunner::with_threads(1);
        let dir = tmp_dir("blocktime");
        for i in 0..2 {
            run_shard(&spec, i, 2, &dir, &runner, |_, _, _| {}).unwrap();
        }
        let merged = merge_dir(&dir).unwrap();
        for footer in &merged.footers {
            let snap = footer.block_time_ns.as_ref().expect("footer timing");
            assert_eq!(snap.count as usize, footer.blocks_done);
        }
        let pooled = merged.block_time_ns.expect("pooled timing");
        assert_eq!(pooled.count as usize, spec.block_count());
        assert!(pooled.quantile(0.5) >= pooled.min);
        // Footers recorded before the field existed still parse (the
        // checked-in example partials predate it).
        let legacy = r#"{"done":{"index":0,"pass":0,"blocks_done":2,"wall_ms":5,"cpu_ms":null,"peak_rss_kib":null}}"#;
        let line: ShardLine = serde_json::from_str(legacy).unwrap();
        let ShardLine::Done(footer) = line else {
            panic!("expected a footer");
        };
        assert_eq!(footer.block_time_ns, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_recomputes_only_missing_blocks_even_across_shard_counts() {
        let spec = small_campaign();
        let runner = ScenarioRunner::with_threads(1);
        let dir = tmp_dir("resume");
        // First incarnation: shard 0 of 2 finishes its half.
        run_shard(&spec, 0, 2, &dir, &runner, |_, _, _| {}).unwrap();
        // Resume with a different shard count: a single shard owning
        // everything skips exactly the finished half.
        let report = run_shard(&spec, 0, 1, &dir, &runner, |_, _, _| {}).unwrap();
        assert_eq!(report.assigned, spec.block_count());
        assert_eq!(report.skipped, shard_blocks(spec.block_count(), 0, 2).len());
        let merged = merge_dir(&dir).unwrap();
        assert_eq!(merged.result, run_campaign(&spec, &runner).unwrap());
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.duplicates, 0, "finished blocks were re-simulated");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_trailing_lines_are_dropped_and_mid_file_corruption_is_not() {
        let spec = small_campaign();
        let runner = ScenarioRunner::with_threads(1);
        let dir = tmp_dir("torn");
        run_shard(&spec, 0, 1, &dir, &runner, |_, _, _| {}).unwrap();
        let path = partial_path(&dir, 0, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        // Drop the clean-exit footer and tear the last block line
        // mid-way, as a SIGKILL during the write would.
        let lines: Vec<&str> = text.trim_end().lines().collect();
        let body = &lines[..lines.len() - 1];
        let torn_last = {
            let mut v = body.to_vec();
            let last = v.last_mut().unwrap();
            *last = &last[..last.len() - 10];
            v.join("\n")
        };
        std::fs::write(&path, &torn_last).unwrap();
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.torn, 1);
        assert_eq!(scan.blocks.len(), spec.block_count() - 1);
        // The same damage mid-file is corruption, not a torn tail.
        let torn_mid = {
            let mut v = body.to_vec();
            let n = v.len();
            v[n - 2] = &v[n - 2][..v[n - 2].len() - 10];
            v.join("\n")
        };
        std::fs::write(&path, &torn_mid).unwrap();
        assert!(scan_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_a_torn_tail_before_appending() {
        let spec = small_campaign();
        let runner = ScenarioRunner::with_threads(1);
        let dir = tmp_dir("torn-resume");
        run_shard(&spec, 0, 1, &dir, &runner, |_, _, _| {}).unwrap();
        let path = partial_path(&dir, 0, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        // Keep the manifest and first block, tear the second block line
        // mid-way (no trailing newline) — a SIGKILL mid-write.
        let lines: Vec<&str> = text.trim_end().lines().collect();
        let torn = format!(
            "{}\n{}\n{}",
            lines[0],
            lines[1],
            &lines[2][..lines[2].len() - 10]
        );
        std::fs::write(&path, &torn).unwrap();
        // Resume: the torn fragment must be dropped, not glued to the
        // pass-1 manifest; the file scans clean afterwards.
        let report = run_shard(&spec, 0, 1, &dir, &runner, |_, _, _| {}).unwrap();
        assert_eq!(report.pass, 1);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.computed, spec.block_count() - 1);
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.torn, 0, "resume left a torn fragment behind");
        assert_eq!(scan.duplicates, 0);
        assert_eq!(scan.blocks.len(), spec.block_count());
        assert_eq!(
            merge_dir(&dir).unwrap().result,
            run_campaign(&spec, &runner).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A kill can cut a partial at any byte. Resuming once from whatever
    /// survives recomputes exactly the blocks that did not survive
    /// whole: the merge equals the single-process run and no block is
    /// simulated twice.
    #[test]
    fn resume_after_a_cut_at_every_offset_merges_exactly() {
        // A tiny literal roster keeps each of the many resumes cheap.
        let spec = CampaignSpec {
            workloads: vec![WorkloadSpec::Explicit(vec![
                AppSpec::periodic(0, Time::ZERO, 64, Time::secs(10.0), Bytes::gib(40.0), 2),
                AppSpec::periodic(1, Time::ZERO, 64, Time::secs(5.0), Bytes::gib(40.0), 2),
            ])],
            ..small_campaign()
        };
        let runner = ScenarioRunner::with_threads(1);
        let single = run_campaign(&spec, &runner).unwrap();
        let dir = tmp_dir("cut");
        run_shard(&spec, 0, 1, &dir, &runner, |_, _, _| {}).unwrap();
        let path = partial_path(&dir, 0, 1);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            run_shard(&spec, 0, 1, &dir, &runner, |_, _, _| {}).unwrap();
            assert_eq!(merge_dir(&dir).unwrap().result, single, "cut at {cut}");
            let scan = scan_dir(&dir).unwrap();
            assert_eq!(scan.duplicates, 0, "cut at {cut}");
            assert_eq!(scan.torn, 0, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_refuses_incomplete_or_foreign_partials() {
        let spec = small_campaign();
        let runner = ScenarioRunner::with_threads(1);
        let dir = tmp_dir("refuse");
        run_shard(&spec, 0, 2, &dir, &runner, |_, _, _| {}).unwrap();
        let err = merge_dir(&dir).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
        // A shard of a different campaign refuses to join the directory.
        let mut other = spec.clone();
        other.seeds.push(9);
        let err = run_shard(&other, 1, 2, &dir, &runner, |_, _, _| {}).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_records_rejects_malformed_blocks() {
        let spec = small_campaign();
        let runner = ScenarioRunner::with_threads(1);
        let mut records =
            block_records(&spec, &runner, &shard_blocks(spec.block_count(), 0, 1), 0).unwrap();
        // Out-of-range index.
        let mut bad = records[0].clone();
        bad.block = spec.block_count();
        assert!(merge_records(&spec, records.iter().cloned().chain([bad])).is_err());
        // Wrong policy arity.
        records[0].runs.pop();
        assert!(merge_records(&spec, records).is_err());
    }
}

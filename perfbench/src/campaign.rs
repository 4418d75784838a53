//! The two campaign workloads: `closed_campaign` (the Fig. 6 sweep
//! through `run_campaign`) and `load_sweep` (the open-system λ sweep
//! through `run_shard` plus `merge_dir`), one seed's slice at a time.
//!
//! Each opaque call is followed by a re-drive of every run through the
//! public calls it composes (`bound_workload` → `materialize` → `build`
//! → `simulate`/`simulate_open` → `from_outcome`), folded with
//! `merge_records`. The re-drive is the correctness gate for every seed
//! (its fold must equal the opaque call's result bit for bit) and gives
//! the per-run latencies. Under `--trace 1` one more re-drive runs
//! inside spans.

use crate::check::{campaign_digest, reference, Digest};
use crate::host;
use crate::trace::{write_trace, Tracer};
use crate::wrap::{PolicyStats, Stamped, TimedPolicy};
use crate::{
    fastest, input_seed, ms_since, peak_rss_mib, Args, Latency, Layers, Outcome, SetupTimes,
    Throughput, READ_REPEATS, REPEATS,
};
use iosched_bench::shard::{merge_dir, merge_records, run_shard, scan_dir, BlockRecord};
use iosched_bench::{run_campaign, CampaignSpec, RunMetrics, ScenarioRunner};
use iosched_model::app::validate_open_scenario;
use iosched_sim::{simulate, simulate_open, simulate_stream, SimError, SimOutcome};
use iosched_workload::WorkloadSpec;
use std::time::Instant;

const FIG6: &str = include_str!("../../examples/campaign_fig6.json");
const SWEEP: &str = include_str!("../../examples/campaign_stream.json");

/// Seeds per 10 s of run length, sized for a 2-vCPU VM with every seed
/// run [`REPEATS`] times through the opaque call and as many times
/// re-driven (~35 ms and ~150 ms per pass of one seed on the 2-vCPU
/// sizing VM).
const FIG6_SEEDS_PER_10S: u64 = 30;
const SWEEP_SEEDS_PER_10S: u64 = 8;

/// Parse and validate a campaign file with its seed axis replaced.
fn load(text: &str, seeds: &[u64]) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec::from_json(text)?;
    spec.seeds = seeds.to_vec();
    spec.validate()?;
    Ok(spec)
}

/// [`load`] with every stream's template frozen to the roster it
/// generates, so the seed axis rebinds only the arrival process.
/// Rebinding the congested-moment template as well changes the load
/// itself, and for about 2% of templates no period at `tmax=32` feeds
/// every application, which aborts the whole shard.
fn load_arrivals_only(text: &str, seeds: &[u64]) -> Result<CampaignSpec, String> {
    let mut spec = load(text, seeds)?;
    let platform = spec.platforms[0].build()?;
    for workload in &mut spec.workloads {
        if let WorkloadSpec::Stream { template, .. } = workload {
            let roster = template.materialize(&platform)?;
            **template = WorkloadSpec::Explicit(roster);
        }
    }
    spec.validate()?;
    Ok(spec)
}

/// What one re-drive of a campaign produced.
struct Pass {
    records: Vec<BlockRecord>,
    events: u64,
    /// Per run: policy build + simulate + `from_outcome`, ms.
    run_ms: Vec<f64>,
    /// Per run, the submit samples, ms: the run's own time for a closed
    /// roster; its admission cycles (see [`Stamped`]) for an open one.
    submit_ms: Vec<Vec<f64>>,
    /// Per run: policy build + simulate, ms (what the opaque call
    /// composes besides its own fold, with `materialize_ms`).
    sim_ms: Vec<f64>,
    /// Per seed block: workload materialization, ms.
    materialize_ms: Vec<f64>,
    elapsed_s: f64,
    failed: u64,
    errors: Vec<String>,
    policy: PolicyStats,
}

/// Re-drive every seed block of `spec` in block order, one run at a
/// time. With a tracer, each call sits in a span and the policy is
/// wrapped so `allocate_into` time is summed onto the run span.
fn redrive(spec: &CampaignSpec, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    let platforms: Vec<iosched_model::Platform> = spec
        .platforms
        .iter()
        .map(iosched_bench::PlatformSpec::build)
        .collect::<Result<_, _>>()?;
    let config = spec.config.clone().unwrap_or_default();
    let rpc = spec.runs_per_cell();
    let n_workloads = spec.workloads.len();
    let mut pass = Pass {
        records: Vec::with_capacity(spec.block_count()),
        events: 0,
        run_ms: Vec::with_capacity(spec.total_runs()),
        submit_ms: Vec::with_capacity(spec.total_runs()),
        sim_ms: Vec::with_capacity(spec.total_runs()),
        materialize_ms: Vec::with_capacity(spec.block_count()),
        elapsed_s: 0.0,
        failed: 0,
        errors: Vec::new(),
        policy: PolicyStats::default(),
    };
    let phase_start = Instant::now();
    let root = tracer.as_mut().map(|t| t.enter("phase"));
    for b in 0..spec.block_count() {
        let group = b / rpc;
        let (p, w, j) = (group / n_workloads, group % n_workloads, b % rpc);
        let workload = spec.bound_workload(w, j);
        let started = Instant::now();
        let span = tracer.as_mut().map(|t| t.enter("workload.materialize"));
        let apps = workload.materialize(&platforms[p]);
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.exit(id);
        }
        pass.materialize_ms.push(ms_since(started));
        let apps = match apps {
            Ok(apps) => apps,
            Err(e) => {
                pass.failed += spec.policies.len() as u64;
                pass.errors.push(format!("block {b}: {e}"));
                continue;
            }
        };
        let mut runs = Vec::with_capacity(spec.policies.len());
        for policy_spec in &spec.policies {
            let started = Instant::now();
            let span = tracer.as_mut().map(|t| t.enter("core.policy_build"));
            let built = policy_spec.build(&platforms[p], &apps);
            if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                t.exit(id);
            }
            let mut policy = match built {
                Ok(policy) => policy,
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("block {b}: {e}"));
                    continue;
                }
            };
            let run = if workload.is_open() {
                simulate_open
            } else {
                simulate
            };
            let mut cycles_ms = Vec::new();
            let outcome: Result<SimOutcome, _> = match tracer.as_mut() {
                Some(t) => {
                    let id = t.enter("sim.run");
                    let mut timed = TimedPolicy::new(policy);
                    let outcome = run(&platforms[p], &apps, &mut timed, &config);
                    t.exit(id);
                    let stats = timed.stats();
                    t.add_summed(id, stats.summed());
                    pass.policy.add(&stats);
                    outcome
                }
                // `simulate_open` is this validation plus a stream run
                // over the roster; composing it here lets the roster pass
                // through a `Stamped` source that times each admission.
                None if workload.is_open() => validate_open_scenario(&platforms[p], &apps)
                    .map_err(|e| SimError::InvalidScenario(e.to_string()))
                    .and_then(|()| {
                        let mut source = Stamped::new(apps.iter().cloned());
                        let outcome = simulate_stream(
                            &platforms[p],
                            source.by_ref(),
                            policy.as_mut(),
                            &config,
                        );
                        cycles_ms = source.gaps_ms;
                        outcome
                    }),
                None => run(&platforms[p], &apps, policy.as_mut(), &config),
            };
            let sim_ms = ms_since(started);
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => {
                    pass.failed += 1;
                    pass.errors
                        .push(format!("block {b}/{}: {e}", policy_spec.name()));
                    continue;
                }
            };
            let metrics = match tracer.as_mut() {
                Some(t) => t.span("bench.fold", |_| RunMetrics::from_outcome(&outcome)),
                None => RunMetrics::from_outcome(&outcome),
            };
            let run_ms = ms_since(started);
            pass.run_ms.push(run_ms);
            pass.submit_ms.push(if workload.is_open() {
                cycles_ms
            } else {
                vec![run_ms]
            });
            pass.sim_ms.push(sim_ms);
            pass.events += outcome.events as u64;
            runs.push(metrics);
        }
        if runs.len() == spec.policies.len() {
            pass.records.push(BlockRecord {
                block: b,
                pass: 0,
                runs,
            });
        }
    }
    if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
        t.exit(id);
    }
    pass.elapsed_s = phase_start.elapsed().as_secs_f64();
    Ok(pass)
}

/// How a campaign workload reads its records back, timed per record.
type Reads = fn(&CampaignSpec, &[BlockRecord]) -> Result<Vec<f64>, String>;

/// `closed_campaign` reads: each run's result record parsed back from
/// the lossless JSON `run_shard` writes it in (what `merge_dir` does for
/// every run of a block), [`READ_REPEATS`] times back to back, the
/// fastest kept and scaled to the nominal host. Reading its `Mix` input
/// instead (`materialize`, 2–3 µs per block) moved ±20% between
/// processes on identical inputs.
fn result_reads(_: &CampaignSpec, records: &[BlockRecord]) -> Result<Vec<f64>, String> {
    let scale = host::scale();
    let mut reads = Vec::new();
    for record in records {
        for run in &record.runs {
            let line = serde_json::to_string(run).map_err(|e| e.to_string())?;
            let mut best = f64::INFINITY;
            for _ in 0..READ_REPEATS {
                let started = Instant::now();
                let back: RunMetrics = serde_json::from_str(&line).map_err(|e| e.to_string())?;
                best = best.min(ms_since(started));
                if back != *run {
                    return Err(format!(
                        "a run of block {} did not read back intact",
                        record.block
                    ));
                }
            }
            reads.push(best * scale);
        }
    }
    Ok(reads)
}

/// `load_sweep` reads: each `next` of every block's stream source
/// (120 applications), drained outside the engine [`READ_REPEATS`]
/// times back to back, each pull's fastest kept and scaled to the
/// nominal host.
fn source_reads(unit: &CampaignSpec, _: &[BlockRecord]) -> Result<Vec<f64>, String> {
    let platforms: Vec<iosched_model::Platform> = unit
        .platforms
        .iter()
        .map(iosched_bench::PlatformSpec::build)
        .collect::<Result<_, _>>()?;
    let scale = host::scale();
    let rpc = unit.runs_per_cell();
    let n_workloads = unit.workloads.len();
    let mut reads = Vec::new();
    for b in 0..unit.block_count() {
        let group = b / rpc;
        let workload = unit.bound_workload(group % n_workloads, b % rpc);
        let platform = &platforms[group / n_workloads];
        let drains = (0..READ_REPEATS)
            .map(|_| crate::stream::drain_ms(&workload, platform))
            .collect::<Result<Vec<_>, _>>()?;
        let pulls = fastest(&drains).ok_or("a block's stream source changed between drains")?;
        reads.extend(pulls.into_iter().map(|ms| ms * scale));
    }
    Ok(reads)
}

/// Digest of every run's metrics, in block order.
fn runs_digest(records: &[BlockRecord]) -> String {
    let mut d = Digest::default();
    for r in records {
        d.word(r.block as u64);
        for m in &r.runs {
            d.run(m);
        }
    }
    d.hex()
}

/// What a workload's opaque call reported for one seed's slice.
struct Call {
    /// Duration of the whole opaque phase (the throughput denominator).
    secs: f64,
    /// Duration of the call that composes the re-driven calls
    /// (`run_campaign` or `run_shard`); the rest is its own self time.
    composing_secs: f64,
    /// Layer metric that receives that rest.
    remainder: &'static str,
    digest: Result<String, String>,
    /// Further per-layer values, summed over seeds.
    layers: Vec<(&'static str, f64)>,
    errors: Vec<String>,
}

/// Run a campaign workload one seed at a time. Each seed's slice of the
/// campaign is a work unit: the opaque call runs it [`REPEATS`] times
/// (fastest kept), then the untraced re-drive does too (the correctness
/// gate, the event count and the per-run latencies, each run at its
/// fastest), and under tracing one more re-drive runs inside spans.
fn campaign_workload(
    args: &Args,
    name: &'static str,
    seeds_per_10s: u64,
    load: impl Fn(&[u64]) -> Result<CampaignSpec, String>,
    opaque: impl Fn(&CampaignSpec, bool) -> Call,
    reads: Reads,
) -> Result<Outcome, String> {
    let seeds: Vec<u64> = (0..(args.seconds * seeds_per_10s).div_ceil(10))
        .map(|i| input_seed(args.seed, i))
        .collect();
    let spec = load(&seeds)?;
    let mut setup = SetupTimes::default();
    let mut out = Outcome::default();
    let mut digest = Digest::default();
    let (mut submit_ms, mut read_ms) = (Vec::new(), Vec::new());
    let (mut opaque_s, mut redrive_s, mut events) = (0.0, 0.0, 0u64);
    let mut tracer = Tracer::new();
    let mut summed: std::collections::BTreeMap<&'static str, f64> = Default::default();
    let (mut fine_s, mut coarse_s, mut fine_events) = (0.0, 0.0, 0u64);
    let mut policy = PolicyStats::default();
    for &seed in &seeds {
        let mut unit = spec.clone();
        unit.seeds = vec![seed];
        let total = unit.total_runs() as u64;
        out.attempted += total;
        // One host reference sample serves every repeat of this seed: with
        // a sample per repeat, the fastest scaled repeat tends to be the
        // one whose sample erred most.
        let scale = host::scale();
        setup.batch(scale, || load(&seeds));

        let mut calls: Vec<Call> = (0..REPEATS)
            .map(|rep| opaque(&unit, args.trace && rep == 0))
            .collect();
        let first = calls[0].digest.clone();
        for call in &mut calls {
            out.mismatches.append(&mut call.errors);
        }
        if calls.iter().any(|c| c.digest != first) {
            out.mismatch(
                total,
                format!("seed {seed}: repeats of the opaque call disagree"),
            );
        }
        let best = calls
            .iter()
            .min_by(|a, b| a.secs.total_cmp(&b.secs))
            .expect("at least one repeat");
        opaque_s += best.secs * scale;

        let mut passes = (0..REPEATS)
            .map(|_| redrive(&unit, None))
            .collect::<Result<Vec<Pass>, String>>()?;
        let pass = &mut passes[0];
        out.failed += pass.failed;
        out.mismatches.append(&mut pass.errors);
        let runs = runs_digest(&passes[0].records);
        if passes.iter().any(|p| runs_digest(&p.records) != runs) {
            out.mismatch(total, format!("seed {seed}: re-drive repeats disagree"));
        }
        let folded = merge_records(&unit, passes[0].records.iter().cloned())
            .map(|r| campaign_digest(&r))
            .map_err(|e| format!("re-drive fold failed: {e}"));
        match (&first, &folded) {
            (Ok(a), Ok(b)) if a == b => digest.text(a),
            (Ok(a), Ok(b)) => {
                out.mismatch(
                    total,
                    format!("seed {seed}: opaque result {a} != re-driven fold {b}"),
                );
            }
            (Err(e), _) | (_, Err(e)) => out.mismatch(total, format!("seed {seed}: {e}")),
        }
        events += passes[0].events;
        // Element-wise fastest over the passes, raw.
        let each = |f: fn(&Pass) -> &Vec<f64>| {
            let repeats: Vec<Vec<f64>> = passes.iter().map(|p| f(p).clone()).collect();
            fastest(&repeats).unwrap_or_default()
        };
        let (run_ms, materialize_ms) = (each(|p| &p.run_ms), each(|p| &p.materialize_ms));
        redrive_s +=
            (run_ms.iter().sum::<f64>() + materialize_ms.iter().sum::<f64>()) * scale / 1e3;
        // Each run's submit samples come from its fastest pass.
        let n = passes[0].run_ms.len();
        for i in 0..n {
            let fastest_pass = passes
                .iter()
                .filter(|p| p.run_ms.len() == n)
                .min_by(|a, b| a.run_ms[i].total_cmp(&b.run_ms[i]))
                .expect("the first pass qualifies");
            submit_ms.extend(fastest_pass.submit_ms[i].iter().map(|ms| ms * scale));
        }
        read_ms.extend(reads(&unit, &passes[0].records)?);

        if args.trace {
            let fine = redrive(&unit, Some(&mut tracer))?;
            if runs_digest(&fine.records) != runs {
                out.mismatch(
                    total,
                    "traced re-drive diverged from the untraced one".into(),
                );
            }
            fine_s += fine.elapsed_s;
            coarse_s += passes[0].elapsed_s;
            policy.add(&fine.policy);
            fine_events += fine.events;
            let composed = (each(|p| &p.sim_ms).iter().sum::<f64>()
                + materialize_ms.iter().sum::<f64>())
                / 1e3;
            *summed.entry(best.remainder).or_default() += best.composing_secs - composed;
            for (name, value) in std::mem::take(&mut calls[0].layers) {
                *summed.entry(name).or_default() += value;
            }
        }
    }
    let digest = digest.hex();
    out.notes.push(format!(
        "{} runs over {} seeds, each timed as the fastest of {REPEATS} and scaled to the \
         nominal host; result digest {digest}",
        out.attempted,
        seeds.len()
    ));
    match reference(name, args.seed, args.seconds) {
        Some(expected) if expected != digest => {
            let n = out.attempted;
            out.mismatch(
                n,
                format!("result {digest} != recorded reference {expected}"),
            );
        }
        Some(_) => out.notes.push("matches the recorded reference".into()),
        None => out
            .notes
            .push("no recorded reference for this seed; checked against the re-drive".into()),
    }
    if args.trace {
        let mut layers = Layers::engine(&tracer, &policy, fine_events);
        for (name, value) in summed {
            layers.set(name, value);
        }
        layers.set("tracing_overhead", fine_s / coarse_s - 1.0);
        layers.report(&mut out);
        write_trace(&tracer, name);
        return Ok(out);
    }
    setup.report(&mut out);
    let rss = peak_rss_mib(None).ok_or("cannot read VmHWM")?;
    out.metric("peak_rss_mib", rss, 1);
    #[allow(clippy::cast_precision_loss)]
    let (runs, events) = (out.attempted as f64, events as f64);
    Throughput {
        runs_per_s: runs / opaque_s,
        events_per_s: events / opaque_s,
        requests_per_s: runs / redrive_s,
        submit: Latency::of(&mut submit_ms),
        read: Latency::of(&mut read_ms),
    }
    .report(&mut out);
    Ok(out)
}

/// `closed_campaign`: the paper's Fig. 6 campaign (Intrepid × 3 `Mix`
/// workloads × 8 online policies) over seeds derived from `--seed`,
/// through `run_campaign` on a one-thread runner.
pub fn closed_campaign(args: &Args) -> Result<Outcome, String> {
    let runner = ScenarioRunner::with_threads(1);
    campaign_workload(
        args,
        "closed_campaign",
        FIG6_SEEDS_PER_10S,
        |seeds| load(FIG6, seeds),
        |spec, _| {
            let started = Instant::now();
            let result = run_campaign(spec, &runner);
            let secs = started.elapsed().as_secs_f64();
            Call {
                secs,
                composing_secs: secs,
                remainder: "bench.fold.self_s",
                digest: result.map(|r| campaign_digest(&r)),
                layers: Vec::new(),
                errors: Vec::new(),
            }
        },
        result_reads,
    )
}

/// `load_sweep`: `examples/campaign_stream.json` (4 arrival rates × 4
/// policies, telemetry and warm-up on) over seeds derived from
/// `--seed`, as one in-process shard into a fresh directory, then
/// merged back.
pub fn load_sweep(args: &Args) -> Result<Outcome, String> {
    let runner = ScenarioRunner::with_threads(1);
    campaign_workload(
        args,
        "load_sweep",
        SWEEP_SEEDS_PER_10S,
        |seeds| load_arrivals_only(SWEEP, seeds),
        |spec, trace| {
            let mut errors = Vec::new();
            // `run_shard` skips blocks a reused directory already holds,
            // so every call starts from an empty one.
            let dir = match crate::WorkDir::new("load_sweep") {
                Ok(dir) => dir,
                Err(e) => {
                    return Call {
                        secs: f64::NAN,
                        composing_secs: f64::NAN,
                        remainder: "bench.shard.self_s",
                        digest: Err(e),
                        layers: Vec::new(),
                        errors,
                    }
                }
            };
            let started = Instant::now();
            let shard = run_shard(spec, 0, 1, dir.path(), &runner, |_, _, _| {});
            let shard_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let merged = merge_dir(dir.path());
            let merge_s = started.elapsed().as_secs_f64();
            let blocks = spec.block_count();
            let (partial_bytes, computed) = match &shard {
                Ok(report) => (
                    std::fs::metadata(&report.path).map_or(0, |m| m.len()),
                    report.computed,
                ),
                Err(e) => {
                    errors.push(format!("run_shard: {e}"));
                    (0, 0)
                }
            };
            if computed != blocks {
                errors.push(format!("shard computed {computed} of {blocks} blocks"));
            }
            let digest = merged
                .as_ref()
                .map(|m| campaign_digest(&m.result))
                .map_err(Clone::clone);
            let mut layers = Vec::new();
            if trace {
                // `merge_dir` is a scan plus the canonical fold: re-run
                // the fold alone to split the two.
                let scan = scan_dir(dir.path());
                let started = Instant::now();
                let refolded = scan.and_then(|s| merge_records(spec, s.blocks.into_values()));
                let fold_s = started.elapsed().as_secs_f64();
                if refolded.map(|r| campaign_digest(&r)).ok() != digest.clone().ok() {
                    errors.push("re-run merge fold diverged from merge_dir".into());
                }
                #[allow(clippy::cast_precision_loss)]
                layers.extend([
                    ("bench.fold.self_s", fold_s),
                    ("bench.merge.self_s", merge_s - fold_s),
                    ("bench.shard.partial_bytes", partial_bytes as f64),
                    (
                        "bench.merge.blocks",
                        merged.as_ref().map_or(0.0, |m| m.blocks as f64),
                    ),
                ]);
            }
            Call {
                secs: shard_s + merge_s,
                composing_secs: shard_s,
                remainder: "bench.shard.self_s",
                digest,
                layers,
                errors,
            }
        },
        source_reads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_bench::CampaignResult;

    fn small(text: &str, seeds: &[u64], keep_workloads: usize) -> CampaignSpec {
        let mut spec = load(text, seeds).unwrap();
        spec.workloads.truncate(keep_workloads);
        spec
    }

    /// The re-drive, untraced and traced, folds to the opaque call's
    /// result bit for bit.
    fn assert_redrive_matches(spec: &CampaignSpec, opaque: &CampaignResult) {
        let expected = campaign_digest(opaque);
        let coarse = redrive(spec, None).unwrap();
        let mut tracer = Tracer::new();
        let fine = redrive(spec, Some(&mut tracer)).unwrap();
        for pass in [&coarse, &fine] {
            assert_eq!(pass.failed, 0, "{:?}", pass.errors);
            let folded = merge_records(spec, pass.records.iter().cloned()).unwrap();
            assert_eq!(campaign_digest(&folded), expected);
        }
        assert_eq!(runs_digest(&coarse.records), runs_digest(&fine.records));
        assert_eq!(coarse.run_ms.len(), spec.total_runs());
        assert_eq!(
            tracer.self_times()["sim.run"].calls,
            spec.total_runs() as u64
        );
        assert!(fine.policy.calls > 0);
    }

    #[test]
    fn closed_redrive_is_bit_identical_to_run_campaign() {
        let spec = small(FIG6, &[5, 6], 1);
        let opaque = run_campaign(&spec, &ScenarioRunner::with_threads(1)).unwrap();
        assert_redrive_matches(&spec, &opaque);
    }

    #[test]
    fn sweep_redrive_is_bit_identical_to_shard_and_merge() {
        let mut spec = load_arrivals_only(SWEEP, &[9]).unwrap();
        spec.workloads.truncate(1);
        let dir = crate::WorkDir::new("test-sweep").unwrap();
        run_shard(
            &spec,
            0,
            1,
            dir.path(),
            &ScenarioRunner::with_threads(1),
            |_, _, _| {},
        )
        .unwrap();
        let merged = merge_dir(dir.path()).unwrap();
        assert_redrive_matches(&spec, &merged.result);
    }

    #[test]
    fn sweep_seeds_rebind_only_arrivals() {
        let spec = load_arrivals_only(SWEEP, &[1, 2]).unwrap();
        let (a, b) = (spec.bound_workload(0, 0), spec.bound_workload(0, 1));
        let (
            WorkloadSpec::Stream {
                template: ta,
                seed: sa,
                ..
            },
            WorkloadSpec::Stream {
                template: tb,
                seed: sb,
                ..
            },
        ) = (&a, &b)
        else {
            panic!("sweep workloads are streams");
        };
        assert_eq!(ta, tb, "the template roster must not move with the seed");
        assert_ne!(sa, sb);
    }
}

//! One measured run of one workload — the protocol the driver invokes:
//! repeat the workload's cells until `--seconds` are used, each repetition
//! with a seed of its own drawn from `--seed`, check every output, and
//! report order statistics over the repetitions.
//!
//! Untraced (`--trace 0`) it yields the end-to-end metrics. Traced
//! (`--trace 1`) every repetition runs twice, through `run_on` and layer by
//! layer under spans, so the tracing overhead is measured inside the run
//! and the two paths' digests are compared; it writes the spans of the
//! last traced pass to `benchmark/out/trace-<workload>.jsonl` and yields
//! the per-layer metrics.

use crate::cells::{
    open_sources, prepare, prepare_traced, run_cell, run_repetition, run_repetition_traced,
    sim_digest, CellOut, Plan, Repetition, Source,
};
use crate::clock::{cpu_timed, peak_rss_mb};
use crate::metrics::{self, Extras, Reading};
use crate::span::{write_jsonl, Span, Tracer};
use crate::stats::median;
use stagger_bench::sweep::{run_sweep, Axis, RunSpec, SweepSpec};
use stagger_core::Mode;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How often the programs are prepared before each repetition; `setup_s`
/// is the median over all of a run's preparations, which this spreads
/// over the whole run.
const SETUPS_PER_REPETITION: usize = 5;

/// Recording-on/off pairs behind `htm-sim.obs_overhead_ratio`.
const OBS_PAIRS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every cell validated, and wherever one thing was simulated twice
    /// (layer by layer and through `run_on`, recording on and off) the
    /// simulated counters agreed.
    pub correct: bool,
    /// Cells run, over all repetitions.
    pub attempted: usize,
    pub failed: usize,
    /// One digest per repetition, in order (traced run: per traced one).
    pub sim_digests: Vec<u64>,
    pub metrics: Vec<Reading>,
    /// Lines for the human report (per-workload speedups, coverage).
    pub notes: Vec<String>,
}

/// The benchmark's own directory for what it writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Whether the budget has room for another pass as long as the last one.
fn room_for(started: Instant, seconds: f64, last_pass_s: Option<f64>) -> bool {
    last_pass_s.is_none_or(|last| started.elapsed().as_secs_f64() + last <= seconds)
}

/// The seed of repetition `index` of a run: repetitions are independent
/// draws, and neighbouring `--seed` values share none of them (thread `t`
/// of a cell uses `seed + t`, so plain `seed + index` would).
pub fn repetition_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn failed_cells<'r>(reps: impl IntoIterator<Item = &'r Repetition>) -> usize {
    reps.into_iter()
        .flat_map(|r| &r.cells)
        .filter(|c| !c.ok())
        .count()
}

pub fn measure(args: &RunArgs) -> Result<Outcome, String> {
    let started = Instant::now();
    let plan = crate::cells::plan(&args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    if args.trace {
        traced(args, started, &plan)
    } else {
        untraced(args, started, &plan)
    }
}

/// Prepare `sources` [`SETUPS_PER_REPETITION`] times, timing each, and keep
/// the last.
fn timed_prepare<'s>(
    sources: &'s [Source],
    setups_s: &mut Vec<f64>,
) -> Vec<workloads::PreparedWorkload<'s>> {
    let mut prepared = Vec::new();
    for _ in 0..SETUPS_PER_REPETITION {
        let (s, p) = cpu_timed(|| prepare(sources));
        setups_s.push(s);
        prepared = p;
    }
    prepared
}

fn untraced(args: &RunArgs, started: Instant, plan: &Plan) -> Result<Outcome, String> {
    let mut setups_s = Vec::new();
    let mut reps: Vec<Repetition> = Vec::new();
    while room_for(started, args.seconds, reps.last().map(|r| r.wall_s)) {
        let seed = repetition_seed(args.seed, reps.len());
        let sources = open_sources(plan, seed);
        let prepared = timed_prepare(&sources, &mut setups_s);
        let rep = run_repetition(plan, &sources, &prepared, seed);
        eprintln!(
            "{} repetition {}: cpu {:.3} s, wall {:.3} s",
            args.workload,
            reps.len() + 1,
            rep.cpu_s,
            rep.wall_s
        );
        reps.push(rep);
    }
    let failed = failed_cells(&reps);
    Ok(Outcome {
        correct: failed == 0,
        attempted: reps.len() * plan.cells.len(),
        failed,
        sim_digests: reps.iter().map(|r| sim_digest(&r.cells)).collect(),
        metrics: metrics::end_to_end(&args.workload, plan, &setups_s, &reps, peak_rss_mb()),
        notes: metrics::simulated_report(&args.workload, plan, &reps),
    })
}

fn traced(args: &RunArgs, started: Instant, plan: &Plan) -> Result<Outcome, String> {
    let first_seed = repetition_seed(args.seed, 0);
    let first = open_sources(plan, first_seed);
    let mut prepare_passes = Vec::new();
    let mut prepare_spans = Vec::new();
    let mut extras = Extras::default();

    let mut extra_cells: Vec<CellOut> = Vec::new();
    let mut observer_pure = true;
    if let Some(spec) = plan.cells.iter().rfind(|c| c.record) {
        // Execute time with recording on over off, on the plan's last
        // recording cell, pairs alternating so drift hits both sides.
        let prepared = prepare(&first);
        let (src, p) = (&first[spec.program], &prepared[spec.program]);
        let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
        let mut off_spec = spec.clone();
        off_spec.record = false;
        for _ in 0..OBS_PAIRS {
            let on = run_cell(src, p, spec, first_seed);
            let off = run_cell(src, p, &off_spec, first_seed);
            on_ns.push(on.run_cpu_ns as f64);
            off_ns.push(off.run_cpu_ns as f64);
            observer_pure &=
                sim_digest(std::slice::from_ref(&on)) == sim_digest(std::slice::from_ref(&off));
            extra_cells.extend([on, off]);
        }
        extras.obs_overhead_ratio = median(&on_ns) / median(&off_ns);
    }
    if plan.pooled {
        sweep_cold_and_warm(first_seed, &mut extras)?;
    }

    let mut untraced_reps: Vec<Repetition> = Vec::new();
    let mut traced_reps: Vec<Repetition> = Vec::new();
    let mut traced_passes = Vec::new();
    let mut rep_spans: Vec<Span> = Vec::new();
    let mut mismatched = 0;
    let pair_s = |u: &[Repetition], t: &[Repetition]| Some(u.last()?.wall_s + t.last()?.wall_s);
    while room_for(started, args.seconds, pair_s(&untraced_reps, &traced_reps)) {
        let seed = repetition_seed(args.seed, traced_reps.len());
        let sources = open_sources(plan, seed);
        let prepared = prepare(&sources);
        let mut handmade = Vec::new();
        for _ in 0..SETUPS_PER_REPETITION {
            let t = Tracer::default();
            handmade = prepare_traced(&sources, &t);
            prepare_spans = t.into_spans();
            prepare_passes.push(metrics::layer_seconds(&prepare_spans, plan));
        }
        extras.anchors = handmade.iter().map(|h| h.compiled.stats.anchors).sum();
        extras.loads_stores = handmade.iter().map(|h| h.compiled.stats.loads_stores).sum();
        let plain = run_repetition(plan, &sources, &prepared, seed);
        let t = Tracer::default();
        let spanned = run_repetition_traced(plan, &sources, &handmade, seed, &t);
        rep_spans = t.into_spans();
        traced_passes.push(metrics::layer_seconds(&rep_spans, plan));
        // Hand-driven layers and `run_on` must simulate the same thing.
        if sim_digest(&plain.cells) != sim_digest(&spanned.cells) {
            mismatched += spanned.cells.len();
        }
        eprintln!(
            "{} pair {}: untraced cpu {:.3} s, traced cpu {:.3} s",
            args.workload,
            traced_reps.len() + 1,
            plain.cpu_s,
            spanned.cpu_s
        );
        untraced_reps.push(plain);
        traced_reps.push(spanned);
    }

    write_trace(&args.workload, &prepare_spans, &rep_spans)?;

    let all = || untraced_reps.iter().chain(&traced_reps);
    let failed = failed_cells(all()) + extra_cells.iter().filter(|c| !c.ok()).count() + mismatched;
    let coverage = metrics::layer_coverage(&rep_spans);
    Ok(Outcome {
        correct: failed == 0 && observer_pure,
        attempted: all().count() * plan.cells.len() + extra_cells.len(),
        failed,
        sim_digests: traced_reps.iter().map(|r| sim_digest(&r.cells)).collect(),
        metrics: metrics::per_layer(
            plan,
            &prepare_passes,
            &traced_passes,
            &traced_reps,
            &untraced_reps,
            &extras,
        ),
        notes: vec![format!(
            "named layer spans cover {:.2}% of the traced repetition",
            coverage * 100.0
        )],
    })
}

/// A fixed four-cell sweep into an empty directory, then again: the cold
/// pass computes and persists every cell, the warm pass must find all four
/// in the cache.
fn sweep_cold_and_warm(seed: u64, extras: &mut Extras) -> Result<(), String> {
    let mut base = RunSpec::new("list-hi", Mode::Htm, 16, seed);
    base.quick = true;
    let spec = SweepSpec {
        name: "benchmark".to_string(),
        base,
        axes: vec![
            Axis::new("workload", &["list-hi", "kmeans"]),
            Axis::new("mode", &["HTM", "Staggered"]),
        ],
    };
    let dir = out_dir().join(format!("sweep-{}", std::process::id()));
    // A stale directory from a killed run would make the cold pass warm.
    let _ = std::fs::remove_dir_all(&dir);
    let (cold_s, cold) = cpu_timed(|| run_sweep(&spec, &dir, 1, None, None));
    let (warm_s, warm) = cpu_timed(|| run_sweep(&spec, &dir, 1, None, None));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, warm) = (cold?, warm?);
    if cold.computed != 4 || !warm.is_complete() {
        return Err(format!(
            "sweep: cold pass computed {} of 4 cells, warm pass complete: {}",
            cold.computed,
            warm.is_complete()
        ));
    }
    extras.sweep_cold_s = cold_s;
    extras.sweep_warm_s = warm_s;
    extras.sweep_warm_hits = warm.cached;
    Ok(())
}

/// The last traced preparation followed by the last traced repetition,
/// as one file with one id space.
fn write_trace(workload: &str, prepare: &[Span], repetition: &[Span]) -> Result<(), String> {
    let offset = prepare.len() as u32;
    let shifted = repetition.iter().map(|s| Span {
        id: s.id + offset,
        parent: s.parent.map(|p| p + offset),
        ..s.clone()
    });
    let spans: Vec<Span> = prepare.iter().cloned().chain(shifted).collect();
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir())?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write_jsonl(&mut w, &spans)?;
        w.flush()
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))
}

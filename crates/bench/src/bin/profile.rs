//! profile — conflict-attribution profiler over the observability stream.
//!
//! Runs one workload (`--workload`, default `list-hi`) in one mode
//! (`--mode`, default HTM) with event recording on, then prints what the
//! paper's Section 3 profiling pass consumes: the abort-cause breakdown,
//! the top conflicting PC-tag pairs resolved to IR functions/instructions
//! (via the compiled program's anchor tables and `CodeLayout`), the
//! victim×aborter conflict matrix, and per-lock-word wait histograms.
//! `--trace-out FILE` additionally dumps the raw event stream as JSONL
//! (schema: `htm-sim`'s obs module docs / EXPERIMENTS.md).

use htm_sim::obs::{log2_bucket, write_jsonl, AbortBreakdown, ConflictMatrix, WaitHistogram};
use stagger_bench::profiling::{conflict_pairs, describe_tag};
use stagger_bench::{Args, CommonOpts, Exhibit};
use stagger_core::Mode;
use workloads::PreparedWorkload;

/// profile's option set: the common flags plus the profiling target.
struct ProfileOpts {
    common: CommonOpts,
    workload: String,
    mode: Mode,
    trace_out: Option<String>,
}

impl ProfileOpts {
    fn from_args() -> ProfileOpts {
        let mut workload = "list-hi".to_string();
        let mut mode = Mode::Htm;
        let mut trace_out: Option<String> = None;
        let common = CommonOpts::parse_with(
            "[--workload W] [--mode M] [--trace-out FILE]",
            "profile options:\n  \
             --workload W     workload to profile (default list-hi)\n  \
             --mode M         execution mode to profile (default HTM)\n  \
             --trace-out FILE also dump the raw event stream as JSONL",
            |a: &mut Args, flag: &str| match flag {
                "--workload" => {
                    workload = a.value("--workload");
                    true
                }
                "--mode" => {
                    let v = a.value("--mode");
                    mode = Mode::parse(&v)
                        .unwrap_or_else(|| a.fail(&format!("invalid --mode value '{v}'")));
                    true
                }
                "--trace-out" => {
                    trace_out = Some(a.value("--trace-out"));
                    true
                }
                _ => false,
            },
        );
        ProfileOpts {
            common,
            workload,
            mode,
            trace_out,
        }
    }
}

fn main() {
    let opts = ProfileOpts::from_args();
    let ex = Exhibit::new("profile", &opts.common);
    let name = &opts.workload;
    let mode = opts.mode;

    let w = ex.workload(name);
    let p = PreparedWorkload::new(w.as_ref());

    let mut spec = ex.spec(&p, mode, opts.common.threads);
    spec.machine.record_events = true;
    let r = ex.run(&p, &spec);
    let streams = &r.events;
    let n_events: usize = streams.iter().map(|s| s.len()).sum();

    ex.banner(&format!(
        "profile: {name} [{}] x{} threads, seed {} — {} cycles, {} events",
        mode.name(),
        opts.common.threads,
        opts.common.seed,
        r.cycles(),
        n_events
    ));
    Exhibit::warn_dropped_events(&r);

    let b = AbortBreakdown::from_events(streams);
    println!(
        "aborts: {} conflict, {} capacity, {} explicit, {} subscription \
         ({} commits, {:.2} aborts/commit)",
        b.conflict,
        b.capacity,
        b.explicit,
        b.subscription,
        b.commits,
        b.aborts() as f64 / (b.commits.max(1)) as f64
    );

    // Top conflicting PC pairs, resolved through the compiled program.
    let pairs = conflict_pairs(streams);
    let c = p.compiled();
    println!();
    println!("top conflicting PC pairs");
    ex.header(&format!(
        "{:<6} {:>6} {:>7} {:>8}   resolution (victim <- aborter)",
        "rank", "count", "ab", "tags"
    ));
    if pairs.is_empty() {
        println!("(no conflict aborts recorded)");
    }
    for (i, pr) in pairs.iter().take(10).enumerate() {
        println!(
            "#{:<5} {:>6} {:>7} {:>#5x}/{:<#5x} {}",
            i + 1,
            pr.count,
            pr.ab_id,
            pr.victim_tag,
            pr.aborter_tag,
            describe_tag(c, pr.ab_id, pr.victim_tag),
        );
        println!("{:36} <- {}", "", describe_tag(c, pr.ab_id, pr.aborter_tag));
    }

    // The raw victim×aborter matrix (top cells).
    let matrix = ConflictMatrix::from_events(streams);
    println!();
    println!(
        "conflict matrix: {} distinct (victim, aborter) tag cells, {} conflict aborts",
        matrix.len(),
        matrix.total()
    );
    for ((vt, at), count) in matrix.top(10) {
        println!("  victim {vt:>#5x} x aborter {at:>#5x} : {count}");
    }

    // Per-lock-word wait histograms (advisory locks only exist in the
    // staggered modes; HTM runs simply have no lock events).
    let waits = WaitHistogram::from_events(streams);
    println!();
    if waits.is_empty() {
        println!("lock-wait histograms: no advisory-lock events in this mode");
    } else {
        println!("lock-wait histograms (log2 buckets, cycles)");
        for (word, w) in waits.words_by_traffic().into_iter().take(8) {
            let attempts = w.acquires + w.timeouts;
            print!(
                "  word {word:#8x}: {attempts} attempts ({} timeouts), {} total wait cycles |",
                w.timeouts, w.total_wait
            );
            let hi = w.buckets.iter().rposition(|&n| n != 0).unwrap_or(0);
            for (k, &n) in w.buckets.iter().enumerate().take(hi + 1) {
                if n != 0 {
                    let lo = if k == 0 { 0 } else { 1u64 << (k - 1) };
                    print!(" [{lo}+]:{n}");
                }
            }
            println!();
        }
        debug_assert!(log2_bucket(0) == 0);
    }

    if let Some(path) = &opts.trace_out {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("profile: cannot create {path}: {e}")),
        );
        write_jsonl(&mut f, streams)
            .unwrap_or_else(|e| panic!("profile: write to {path} failed: {e}"));
        println!();
        println!("wrote {n_events} events to {path}");
    }

    ex.finish();
}

//! profile — conflict-attribution profiler over the observability stream.
//!
//! Runs one workload (`--workload`, default `list-hi`) in one mode
//! (`--mode`, default HTM) with event recording on, then prints what the
//! paper's Section 3 profiling pass consumes: the abort-cause breakdown
//! (the run's `SimStats`, the tally every table prints), the top
//! conflicting PC-tag pairs resolved to IR functions/instructions (via the
//! compiled program's anchor tables and `CodeLayout`), the victim×aborter
//! conflict matrix, and per-lock-word wait percentiles.
//! `--trace-out FILE` additionally dumps the raw event stream as JSONL
//! (schema: `htm-sim`'s obs module docs / EXPERIMENTS.md).

use htm_sim::obs::write_jsonl;
use stagger_bench::profiling::{conflict_pairs, describe_tag, lock_waits};
use stagger_bench::{Args, CommonOpts, Exhibit};
use stagger_core::Mode;
use std::cmp::Reverse;
use std::collections::BTreeMap;
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

    let sim = &r.out.sim;
    let a = sim.aggregate();
    println!(
        "aborts: {} conflict, {} capacity, {} explicit, {} subscription \
         ({} hardware + {} irrevocable commits, {:.2} aborts/commit)",
        a.conflict_aborts,
        a.capacity_aborts,
        a.explicit_aborts,
        a.subscription_aborts,
        a.commits,
        a.irrevocable_commits,
        sim.aborts_per_commit()
    );

    // Top conflicting PC pairs, resolved through the compiled program.
    let pairs = conflict_pairs(streams);
    let c = p.compiled();
    let mask = spec.machine.pc_tag_mask();
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
            describe_tag(c, pr.ab_id, pr.victim_tag, mask),
        );
        println!(
            "{:36} <- {}",
            "",
            describe_tag(c, pr.ab_id, pr.aborter_tag, mask)
        );
    }

    // The victim×aborter matrix: the pairs above summed over atomic
    // blocks, heaviest cells first.
    let mut cells: BTreeMap<(u16, u16), u64> = BTreeMap::new();
    for pr in &pairs {
        *cells.entry((pr.victim_tag, pr.aborter_tag)).or_insert(0) += pr.count;
    }
    let total: u64 = cells.values().sum();
    let mut cells: Vec<_> = cells.into_iter().collect();
    cells.sort_by_key(|&((vt, at), count)| (Reverse(count), vt, at));
    println!();
    println!(
        "conflict matrix: {} distinct (victim, aborter) tag cells, {total} conflict aborts",
        cells.len()
    );
    for ((vt, at), count) in cells.into_iter().take(10) {
        println!("  victim {vt:>#5x} x aborter {at:>#5x} : {count}");
    }

    // Per-lock-word wait percentiles (advisory locks only exist in the
    // staggered modes; HTM runs simply have no lock events).
    let waits = lock_waits(streams);
    println!();
    if waits.is_empty() {
        println!("lock-wait histograms: no advisory-lock events in this mode");
    } else {
        println!("lock-wait histograms (cycles waited per acquire attempt)");
        for w in waits.iter().take(8) {
            let s = w.waits.summary();
            println!(
                "  word {:#8x}: {} attempts ({} timeouts), {} total wait cycles | \
                 p50 {} p90 {} p99 {} max {}",
                w.word, s.count, w.timeouts, s.total, s.p50, s.p90, s.p99, s.max
            );
        }
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

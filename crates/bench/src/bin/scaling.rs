//! scaling — simulator core-count scaling exhibit.
//!
//! Runs the two high-contention workloads (`list-hi`, `memcached`) in the
//! baseline-HTM and Staggered modes across a core-count ladder (default
//! 16..256, the range ROADMAP item 1 targets), and reports both simulated
//! contention (abort rate) and *host-side* scheduler economics:
//! `ns_per_inst`, simulated instructions per host second, `schedule()`
//! calls, tree key updates, and how many gated ops were elided by parked
//! spin-waits. The per-resumption scheduling cost is O(log n) in cores (a
//! winner tree over per-core keys, versus the old O(n) scan that made
//! 256-core scheduling quadratic over a run), and a core spinning on a held
//! lock is parked rather than resumed per poll, so `sched_calls` tracks
//! lock hand-offs and real work, not waiting time; the residual growth in
//! `ns_per_inst` up the ladder tracks simulated contention — the abort
//! rate. `sched_stale` / `sched_calls` ~= 1.2: one key update for the core
//! that ran plus one per park and unpark.
//!
//! `--json` dumps every run to `results/BENCH_scaling.json`.

use stagger_bench::{Args, CommonOpts, Exhibit};
use stagger_core::Mode;

/// scaling's option set: the common flags plus the core-count ladder.
struct ScalingOpts {
    common: CommonOpts,
    cores: Vec<usize>,
}

impl ScalingOpts {
    fn from_args() -> ScalingOpts {
        let mut cores: Vec<usize> = vec![16, 32, 64, 128, 256];
        let common = CommonOpts::parse_with(
            "[--cores LIST]",
            "scaling options:\n  \
             --cores LIST     comma-separated core counts to sweep\n                   \
             (default 16,32,64,128,256)",
            |a: &mut Args, flag: &str| match flag {
                "--cores" => {
                    let v = a.value("--cores");
                    cores = v
                        .split(',')
                        .map(|t| {
                            let n: usize = t.trim().parse().unwrap_or_else(|_| {
                                a.fail(&format!("invalid --cores value '{v}'"))
                            });
                            if !(1..=htm_sim::MAX_CORES).contains(&n) {
                                a.fail(&format!(
                                    "--cores values must be in 1..={}, got {n}",
                                    htm_sim::MAX_CORES
                                ));
                            }
                            n
                        })
                        .collect();
                    if cores.is_empty() {
                        a.fail("--cores needs at least one core count");
                    }
                    true
                }
                _ => false,
            },
        );
        ScalingOpts { common, cores }
    }
}

/// The exhibit's workload pair: the two highest-contention benchmarks.
const WORKLOADS: [&str; 2] = ["list-hi", "memcached"];
const MODES: [Mode; 2] = [Mode::Htm, Mode::Staggered];

fn main() {
    let opts = ScalingOpts::from_args();
    let ex = Exhibit::new("scaling", &opts.common);
    ex.banner(&format!(
        "Core-count scaling: {} x {{HTM, Staggered}} at n_cores in {:?}",
        WORKLOADS.join(", "),
        opts.cores
    ));
    ex.header(&format!(
        "{:<10} {:<10} {:>6} {:>14} {:>10} {:>9} {:>10} {:>12} {:>11} {:>12} {:>9}",
        "benchmark",
        "mode",
        "cores",
        "sim_cycles",
        "aborts/cm",
        "ns/inst",
        "Minsts/s",
        "sched_calls",
        "sched_stale",
        "elided_ops",
        "parks"
    ));

    let set = ex.workload_list(&WORKLOADS);
    let prepared = ex.prepare(&set);
    let report = ex.report();

    // One job per (workload, mode, cores) cell; the pool keeps results in
    // submission order, so rows print ladder-ordered at any --jobs level.
    let runs = report.pool(
        prepared
            .iter()
            .flat_map(|p| {
                let cores = &opts.cores;
                let seed = opts.common.seed;
                MODES.into_iter().flat_map(move |mode| {
                    cores
                        .iter()
                        .map(move |&n| move || report.run(p, mode, n, seed))
                })
            })
            .collect(),
    );

    for r in &runs {
        let agg = r.out.sim.aggregate();
        let commits = agg.commits + agg.irrevocable_commits;
        let aborts = agg.conflict_aborts
            + agg.capacity_aborts
            + agg.explicit_aborts
            + agg.subscription_aborts;
        let apc = if commits > 0 {
            aborts as f64 / commits as f64
        } else {
            0.0
        };
        println!(
            "{:<10} {:<10} {:>6} {:>14} {:>10.3} {:>9.1} {:>10.2} {:>12} {:>11} {:>12} {:>9}",
            r.name,
            r.mode.name(),
            r.n_threads,
            r.cycles(),
            apc,
            r.ns_per_inst(),
            r.insts_per_sec() / 1e6,
            r.out.sched.schedule_calls,
            r.out.sched.stale_refreshes,
            r.out.sched.elided_ops,
            r.out.sched.parks,
        );
    }
    ex.finish();
}

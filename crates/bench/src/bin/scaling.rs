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
//! The grid is the `scaling` built-in sweep's (`sweep --spec scaling`
//! persists its contention metrics), with `--cores` replacing its
//! `threads` axis. `--json` dumps every run to
//! `results/BENCH_scaling.json`.

use htm_sim::MachineConfig;
use stagger_bench::sweep::builtin_sweep;
use stagger_bench::{Args, CommonOpts, Exhibit};

/// scaling's option set: the common flags plus the core-count ladder
/// (`None` keeps the built-in sweep's).
struct ScalingOpts {
    common: CommonOpts,
    cores: Option<Vec<String>>,
}

impl ScalingOpts {
    fn from_args() -> ScalingOpts {
        let mut cores = None;
        let common = CommonOpts::parse_with(
            "[--cores LIST]",
            "scaling options:\n  \
             --cores LIST     comma-separated core counts to sweep\n                   \
             (default: the scaling sweep's, 16 to 256)",
            |a: &mut Args, flag: &str| match flag {
                "--cores" => {
                    let v = a.value("--cores");
                    let ladder: Vec<String> = v
                        .split(',')
                        .map(|t| {
                            let n: usize = t.trim().parse().unwrap_or_else(|_| {
                                a.fail(&format!("invalid --cores value '{v}'"))
                            });
                            if !MachineConfig::CORES.contains(&n) {
                                a.fail(&format!(
                                    "--cores values must be in {:?}, got {n}",
                                    MachineConfig::CORES
                                ));
                            }
                            n.to_string()
                        })
                        .collect();
                    cores = Some(ladder);
                    true
                }
                _ => false,
            },
        );
        ScalingOpts { common, cores }
    }
}

fn main() {
    let opts = ScalingOpts::from_args();
    let ex = Exhibit::new("scaling", &opts.common);
    let mut spec = builtin_sweep("scaling", &opts.common).expect("built-in");
    if let Some(cores) = opts.cores {
        spec.axes.last_mut().expect("threads axis").values = cores;
    }
    let [workloads, _, ladder] = &spec.axes[..] else {
        unreachable!("scaling sweeps workload x mode x threads");
    };
    ex.banner(&format!(
        "Core-count scaling: {} x {{HTM, Staggered}} at n_cores in [{}]",
        workloads.values.join(", "),
        ladder.values.join(", ")
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

    // One job per (workload, mode, cores) cell, ladder-ordered.
    let grid = spec
        .cells()
        .expect("--cores values are valid thread counts");
    for r in &ex.run_grid(&grid) {
        println!(
            "{:<10} {:<10} {:>6} {:>14} {:>10.3} {:>9.1} {:>10.2} {:>12} {:>11} {:>12} {:>9}",
            r.name,
            r.mode.name(),
            r.n_threads,
            r.cycles(),
            r.out.sim.aborts_per_commit(),
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

//! protocols — the protocol-matrix exhibit.
//!
//! Runs every workload in the suite × {HTM, Staggered} × the four
//! execution variants of the fallback/capacity API (`irrevocable`
//! baseline, `hybrid-stm` instrumented software fallback,
//! `lazy-subscription-safe` hardware commit-time lock validation,
//! `bounded-set` read/write-set-limited HTM) and prints, per cell, the
//! simulated cycles, commit/fallback split, abort breakdown by cause and
//! the speedup against the cell's own irrevocable baseline. The grid is
//! the same one the `protocols` built-in sweep persists
//! (`sweep --spec protocols`); this binary renders it as an exhibit and
//! `--json` dumps every run to `results/BENCH_protocols.json`.
//!
//! The deliberately unsafe `lazy-subscription` variant is excluded here
//! exactly as in the sweep: its torn commits would trip workload
//! validation. It lives in the regression tests
//! (`stagger-core/tests/lazy_subscription.rs`).

use stagger_bench::sweep::builtin_sweep;
use stagger_bench::{CommonOpts, Exhibit};

fn main() {
    let opts = CommonOpts::from_args();
    let ex = Exhibit::new("protocols", &opts);
    let spec = builtin_sweep("protocols", &opts).expect("built-in");
    let grid = spec.cells().expect("built-in sweeps expand");
    let n_variants = spec.axes.last().expect("variant axis").values.len();

    ex.banner(&format!(
        "Protocol matrix: {} cells — every workload x {{HTM, Staggered}} x \
         {{irrevocable, hybrid-stm, lazy-subscription-safe, bounded-set}}, {} threads",
        grid.len(),
        opts.threads
    ));
    ex.header(&format!(
        "{:<10} {:<10} {:<22} {:>12} {:>8} {:>7} {:>8} {:>5} {:>5} {:>9}",
        "benchmark",
        "mode",
        "variant",
        "sim_cycles",
        "commits",
        "fallbk",
        "abts/cm",
        "cap",
        "sub",
        "vs irrev"
    ));

    // One job per grid cell; results are in grid order, so rows print
    // variant-grouped at any --jobs level.
    let runs = ex.run_grid(&grid);

    // The variant axis is the fastest, so each chunk is one (workload,
    // mode) group with the irrevocable baseline first.
    for (cells, group) in grid.chunks(n_variants).zip(runs.chunks(n_variants)) {
        let base_cycles = group[0].cycles();
        for (cell, r) in cells.iter().zip(group) {
            let agg = r.out.sim.aggregate();
            let variant = &cell.coords.last().expect("variant coordinate").1;
            println!(
                "{:<10} {:<10} {:<22} {:>12} {:>8} {:>7} {:>8.2} {:>5} {:>5} {:>8.2}x",
                r.name,
                r.mode.name(),
                variant,
                r.cycles(),
                agg.commits,
                agg.irrevocable_commits,
                r.out.sim.aborts_per_commit(),
                agg.capacity_aborts,
                agg.subscription_aborts,
                base_cycles as f64 / r.cycles().max(1) as f64,
            );
        }
    }
    ex.finish();
}

//! sweep — declarative ablation sweeps over serialized experiment specs.
//!
//! Grid-expands a built-in [`SweepSpec`] (`--spec`, default: all) into
//! [`RunSpec`] cells, runs the missing cells through the parallel job
//! runner, and caches every completed cell under a content-hashed run key
//! in `--dir` (default `results/sweeps`). Interrupted sweeps — `--max-cells`
//! bounds how many new cells one invocation computes — resume where they
//! left off, and the final JSON/CSV tables are byte-identical to an
//! uninterrupted run because cells persist only simulated quantities.
//!
//! Built-in sweeps: `pc-tags` (conflicting-PC tag width × mode on the
//! high-contention workloads — the paper's "12 bits suffice" claim),
//! `lock-tuning` (advisory-lock timeout × Polite backoff base — the
//! Section 2 liveness/serialization trade-off), `scaling` and `serve`
//! (contention metrics of the core-count and offered-load grids),
//! `protocols` (the protocol matrix: workload × mode × execution
//! variant — the `protocols` binary renders the same grid as an
//! exhibit), and `smoke` (a two-cell sweep for CI cache checks, run only
//! when named).

use stagger_bench::sweep::{
    builtin_sweep, builtin_sweep_names, cell_dir, run_sweep, write_tables, CellResult,
};
use stagger_bench::{Args, CommonOpts, Exhibit};
use stagger_core::Mode;
use std::path::PathBuf;

struct SweepOpts {
    common: CommonOpts,
    /// Sweep names to run (empty = every built-in except `smoke`).
    specs: Vec<String>,
    max_cells: Option<usize>,
    dir: PathBuf,
    list: bool,
}

impl SweepOpts {
    fn from_args() -> SweepOpts {
        let mut specs: Vec<String> = Vec::new();
        let mut max_cells: Option<usize> = None;
        let mut dir = PathBuf::from("results/sweeps");
        let mut list = false;
        let common = CommonOpts::parse_with(
            "[--spec NAME]... [--max-cells N] [--dir PATH] [--list]",
            "sweep options:\n  \
             --spec NAME      built-in sweep to run (repeatable; default: every built-in)\n  \
             --max-cells N    compute at most N new cells this invocation (resume later)\n  \
             --dir PATH       sweep cache/table directory (default results/sweeps)\n  \
             --list           list the built-in sweeps and their grids, then exit",
            |a: &mut Args, flag: &str| match flag {
                "--spec" => {
                    specs.push(a.value("--spec"));
                    true
                }
                "--max-cells" => {
                    max_cells = Some(a.parsed("--max-cells"));
                    true
                }
                "--dir" => {
                    dir = PathBuf::from(a.value("--dir"));
                    true
                }
                "--list" => {
                    list = true;
                    true
                }
                _ => false,
            },
        );
        SweepOpts {
            common,
            specs,
            max_cells,
            dir,
            list,
        }
    }
}

fn main() {
    let opts = SweepOpts::from_args();
    let ex = Exhibit::new("sweep", &opts.common);

    if opts.list {
        for &name in builtin_sweep_names() {
            let spec = builtin_sweep(name, &opts.common).expect("built-in");
            let cells = spec.cells().expect("built-in sweeps expand");
            println!("{name}: {} cells", cells.len());
            println!("  base: {} [{}]", spec.base.workload, spec.base.mode.name());
            for ax in &spec.axes {
                println!("  axis {} = {{{}}}", ax.key, ax.values.join(", "));
            }
        }
        return;
    }

    let names: Vec<String> = if opts.specs.is_empty() {
        builtin_sweep_names()
            .iter()
            .filter(|&&s| s != "smoke")
            .map(|s| s.to_string())
            .collect()
    } else {
        opts.specs.clone()
    };

    let mut all_complete = true;
    for name in &names {
        let Some(spec) = builtin_sweep(name, &opts.common) else {
            eprintln!("sweep: unknown sweep '{name}'");
            eprintln!("available: {}", builtin_sweep_names().join(" "));
            std::process::exit(2);
        };
        let grid = spec.cells().expect("built-in sweeps expand");
        println!(
            "== sweep {name}: {} cells ({} axes) -> {}",
            grid.len(),
            spec.axes.len(),
            cell_dir(&opts.dir, name).display()
        );
        let outcome = run_sweep(
            &spec,
            &opts.dir,
            opts.common.jobs,
            opts.max_cells,
            Some(&ex),
        )
        .unwrap_or_else(|e| {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        });
        println!(
            "sweep {name}: {} cells total, {} cached, {} computed, {} remaining",
            grid.len(),
            outcome.cached,
            outcome.computed,
            outcome.remaining
        );
        if !outcome.is_complete() {
            all_complete = false;
            println!(
                "sweep {name}: incomplete — re-run to resume ({} cells left)",
                outcome.remaining
            );
            continue;
        }
        let cells = outcome.complete_cells();
        let (json_path, csv_path) =
            write_tables(&spec, &grid, &cells, &opts.dir).unwrap_or_else(|e| {
                eprintln!("sweep: cannot write tables: {e}");
                std::process::exit(1);
            });
        println!("sweep {name}: wrote {}", json_path.display());
        println!("sweep {name}: wrote {}", csv_path.display());

        // Human-readable grid summary.
        println!();
        let coord_hdr: Vec<String> = spec.axes.iter().map(|ax| ax.key.clone()).collect();
        ex.header(&format!(
            "{:<44} {:>12} {:>8} {:>8} {:>9} {:>8}",
            coord_hdr.join(" / "),
            "cycles",
            "commits",
            "abts/c",
            "accuracy",
            "lk t/o"
        ));
        for (cell, res) in grid.iter().zip(&cells) {
            let coords: Vec<String> = cell.coords.iter().map(|(_, v)| v.clone()).collect();
            let m = &res.metrics;
            println!(
                "{:<44} {:>12} {:>8} {:>8.2} {:>9.2} {:>8}",
                coords.join(" / "),
                m.sim_cycles,
                m.commits + m.irrevocable_commits,
                m.aborts_per_commit(),
                m.accuracy(),
                m.lock_timeouts
            );
        }

        if name == "pc-tags" {
            pc_tag_analysis(&cells);
        }
        println!();
    }

    ex.finish();
    if !all_complete {
        std::process::exit(3);
    }
}

/// The paper's Section 4 claim, checked against the grid: anchor
/// identification degrades as tags narrow below 12 bits, and 12 bits is
/// already within noise of 16.
fn pc_tag_analysis(cells: &[&CellResult]) {
    println!();
    println!("PC-tag sensitivity (Staggered cells, accuracy by width):");
    // Group staggered cells by workload; axis order guarantees bits ascend.
    let mut by_workload: Vec<(String, Vec<(u32, f64)>)> = Vec::new();
    for res in cells {
        if res.spec.mode != Mode::Staggered {
            continue;
        }
        let bits = res.spec.machine.pc_tag_bits;
        let acc = res.metrics.accuracy();
        match by_workload
            .iter_mut()
            .find(|(w, _)| *w == res.spec.workload)
        {
            Some((_, v)) => v.push((bits, acc)),
            None => by_workload.push((res.spec.workload.clone(), vec![(bits, acc)])),
        }
    }
    for (w, curve) in &by_workload {
        let pts: Vec<String> = curve
            .iter()
            .map(|(b, a)| format!("{b}b:{:.3}", a))
            .collect();
        let monotone = curve.windows(2).all(|p| p[0].1 <= p[1].1 + 1e-9);
        println!(
            "  {w:<10} {}  {}",
            pts.join("  "),
            if monotone {
                "(degrades only as tags narrow)"
            } else {
                "(non-monotonic — inspect)"
            }
        );
    }
}

//! paper — the paper's Section 6 evaluation: Tables 1–4 and Figures 7
//! and 8, read off one run matrix.
//!
//! Every workload runs six times, all through the job pool as one batch:
//! HTM on one core (the sequential reference), each of the four modes at
//! `--threads`, and Staggered on one core (Table 3's single-thread
//! execution increase). Each table is a view of those rows, so a number
//! two exhibits share (S in Tables 1 and 4, HTM aborts/commit in Table 4
//! and Figure 8) is one measurement. Output order is fixed at any
//! `--jobs` level; the paper's values print alongside (see EXPERIMENTS.md).

use htm_sim::MachineConfig;
use stagger_bench::{contention_class, harmonic_mean, paper, yn, CommonOpts, Exhibit};
use stagger_core::Mode;
use workloads::{BenchResult, PreparedWorkload};

/// One workload's six runs.
struct Row<'a> {
    p: &'a PreparedWorkload<'a>,
    /// HTM on one core: the sequential reference.
    seq: &'a BenchResult,
    /// `Mode::ALL` at `--threads`, in that order.
    modes: &'a [BenchResult],
    /// Staggered on one core.
    stag1: &'a BenchResult,
}

impl Row<'_> {
    fn htm(&self) -> &BenchResult {
        &self.modes[0]
    }

    fn staggered(&self) -> &BenchResult {
        &self.modes[3]
    }

    /// Speedup of `r` over the sequential reference.
    fn speedup(&self, r: &BenchResult) -> f64 {
        self.seq.cycles() as f64 / r.cycles() as f64
    }
}

fn main() {
    let opts = CommonOpts::from_args();
    let ex = Exhibit::new("paper", &opts);
    let set = ex.workload_set();
    let prepared = ex.prepare(&set);
    let report = ex.report();

    let t = opts.threads;
    let matrix: Vec<(Mode, usize)> = std::iter::once((Mode::Htm, 1))
        .chain(Mode::ALL.map(|m| (m, t)))
        .chain([(Mode::Staggered, 1)])
        .collect();
    let runs = report.pool(
        prepared
            .iter()
            .flat_map(|p| {
                matrix
                    .iter()
                    .map(move |&(mode, threads)| move || report.run(p, mode, threads, opts.seed))
            })
            .collect(),
    );
    let rows: Vec<Row> = prepared
        .iter()
        .zip(runs.chunks(matrix.len()))
        .map(|(p, r)| Row {
            p,
            seq: &r[0],
            modes: &r[1..5],
            stag1: &r[5],
        })
        .collect();

    // Tables 1, 3 and 4 put the quick tag mid-banner, so every section
    // places it itself instead of going through `Exhibit::banner`.
    let q = if opts.quick { " (quick)" } else { "" };
    table1(&ex, &rows, q);
    println!();
    table2();
    println!();
    table3(&ex, &rows, q);
    println!();
    table4(&ex, &rows, q);
    println!();
    fig7(&ex, &rows, q);
    println!();
    fig8(&ex, &rows, q);
    ex.finish();
}

/// Table 1 — baseline HTM contention in the paper's representative
/// subset: speedup, % irrevocable, wasted/useful, and the LA/LP locality
/// of contention addresses and PCs.
fn table1(ex: &Exhibit, rows: &[Row], q: &str) {
    println!(
        "Table 1: baseline HTM contention, {} threads{q} (paper values in parentheses)",
        ex.opts().threads
    );
    ex.header(&format!(
        "{:<10} {:>12} {:>12} {:>12} {:>8} {:>8}   {:<24}",
        "benchmark", "S", "%I", "W/U", "LA", "LP", "contention source"
    ));
    for r in paper::TABLE1 {
        let Some(row) = rows.iter().find(|row| row.p.name() == r.name) else {
            continue;
        };
        let htm = row.htm();
        println!(
            "{:<10} {:>5.1} ({:>4.1}) {:>5.1} ({:>3.0}%) {:>5.2} ({:>4.2}) {:>3} ({}) {:>3} ({})   {:<24}",
            r.name,
            row.speedup(htm),
            r.speedup,
            htm.out.sim.irrevocable_fraction() * 100.0,
            r.irrevocable_pct,
            htm.out.sim.wasted_over_useful(),
            r.wasted_over_useful,
            yn(htm.out.rt.addr_locality()),
            r.la,
            yn(htm.out.rt.pc_locality()),
            r.lp,
            r.contention_source,
        );
    }
    println!();
    println!("S: speedup over sequential.  %I: transactions forced irrevocable.");
    println!("W/U: wasted/useful transactional cycles.  LA/LP: locality (>=50% on one");
    println!("address / first-access PC) of contention aborts.");
}

/// Table 2 — the simulated machine (`MachineConfig` defaults) against
/// the paper's MARSSx86/ASF setup. Static: no run behind it.
fn table2() {
    let c = MachineConfig::default();
    println!("Table 2: HTM simulator configuration");
    println!("{}", "-".repeat(74));
    let rows: Vec<(&str, String, &str)> = vec![
        (
            "CPU cores",
            format!("{} cores, in-order cost model", c.n_cores),
            "2.5GHz, 4-wide out-of-order",
        ),
        (
            "L1 cache",
            format!(
                "private, {} KB, {}-way, 64-byte line, {}-cycle",
                c.l1_sets * c.l1_ways * 64 / 1024,
                c.l1_ways,
                c.l1_latency
            ),
            "private, 64K D, 8-way, 64-byte line, 2-cycle",
        ),
        (
            "L2 cache",
            format!(
                "private, {} MB, {}-way, {}-cycle",
                c.l2_sets * c.l2_ways * 64 / (1024 * 1024),
                c.l2_ways,
                c.l2_latency
            ),
            "private, 1M, 8-way, 10-cycle",
        ),
        (
            "L3 cache",
            format!(
                "shared, {} MB, {}-way, {}-cycle",
                c.l3_sets * c.l3_ways * 64 / (1024 * 1024),
                c.l3_ways,
                c.l3_latency
            ),
            "shared, 8M, 8-way, 30-cycle",
        ),
        (
            "Memory",
            format!(
                "{} MB simulated, {}-cycle (50ns)",
                c.mem_words * 8 / (1024 * 1024),
                c.mem_latency
            ),
            "4 GB, 50ns",
        ),
        (
            "HTM",
            "2-bit (r/w) per L1 line, eager requester-wins".to_string(),
            "2-bit (r/w) per L1 line, eager requester-wins",
        ),
        (
            "Stag. Trans.",
            format!("{}-bit PC tag per L1 line", c.pc_tag_bits),
            "12-bit PC tag per L1 cache line",
        ),
        (
            "Abort cost",
            format!("{} cycles + written-line invalidation", c.tx_abort_cost),
            "(implicit in the OoO pipeline model)",
        ),
    ];
    for (what, ours, theirs) in rows {
        println!("{what:<14} {ours}");
        println!("{:<14}   (paper: {theirs})", "");
    }
}

/// Table 3 — instrumentation: loads/stores analyzed, anchors
/// instrumented, µ-ops and anchors per committed transaction and the
/// execution-time increase on one core, and anchor-identification
/// accuracy at `--threads` (it needs real contention aborts).
fn table3(ex: &Exhibit, rows: &[Row], q: &str) {
    println!("Table 3: instrumentation statistics{q} (paper values in parentheses)");
    ex.header(&format!(
        "{:<10} {:>12} {:>11} | {:>14} {:>12} {:>14} | {:>13}",
        "benchmark", "ld/st", "anchors", "uops/txn", "anchs/txn", "exec inc", "accuracy"
    ));
    // The paper lists list-hi only: list-lo shares its code.
    let mut fractions = Vec::new();
    for row in rows.iter().filter(|row| row.p.name() != "list-lo") {
        let stats = row.p.compile_stats();
        fractions.push(stats.anchor_fraction());
        let inc = row.stag1.cycles() as f64 / row.seq.cycles() as f64 - 1.0;
        let pr = paper::TABLE3.iter().find(|r| r.name == row.p.name());
        println!(
            "{:<10} {:>5} ({:>4}) {:>4} ({:>3}) | {:>6.1} ({:>6.0}) {:>5.1} ({:>4.1}) {:>6.2}% ({:>4.1}%) | {:>5.1}% ({:>5.1}%)",
            row.p.name(),
            stats.loads_stores,
            pr.map_or(0, |r| r.loads_stores),
            stats.anchors,
            pr.map_or(0, |r| r.anchors),
            row.stag1.out.exec.uops_per_txn(),
            pr.map_or(0.0, |r| r.uops_per_txn),
            row.stag1.out.exec.anchors_per_txn(),
            pr.map_or(0.0, |r| r.anchors_per_txn),
            inc * 100.0,
            pr.map_or(0.0, |r| r.exec_increase * 100.0),
            row.staggered().out.rt.accuracy() * 100.0,
            pr.map_or(0.0, |r| r.accuracy * 100.0),
        );
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    println!();
    println!(
        "mean fraction of loads/stores instrumented as anchors: {:.0}% (paper: 13%)",
        mean * 100.0
    );
}

/// Table 4 — benchmark characteristics on the baseline HTM: atomic
/// blocks, %TM, speedup, aborts/commit, contention class.
fn table4(ex: &Exhibit, rows: &[Row], q: &str) {
    println!(
        "Table 4: benchmark characteristics, {} threads{q} (paper values in parentheses)",
        ex.opts().threads
    );
    ex.header(&format!(
        "{:<10} {:>9} {:>14} {:>12} {:>14} {:>14}",
        "benchmark", "ABs", "%TM", "S", "Abts/C", "contention"
    ));
    for row in rows {
        let htm = row.htm();
        let apc = htm.out.sim.aborts_per_commit();
        let pr = paper::table4_ref(row.p.name());
        println!(
            "{:<10} {:>3} ({:>2}) {:>6.0}% ({:>3.0}%) {:>5.1} ({:>4.1}) {:>6.2} ({:>5.2}) {:>6} ({})",
            row.p.name(),
            row.p.compile_stats().atomic_blocks,
            pr.map_or(0, |r| r.atomic_blocks),
            htm.out.sim.tm_fraction() * 100.0,
            pr.map_or(0.0, |r| r.tm_pct),
            row.speedup(htm),
            pr.map_or(0.0, |r| r.speedup),
            apc,
            pr.map_or(0.0, |r| r.aborts_per_commit),
            contention_class(apc),
            pr.map_or("", |r| r.contention),
        );
    }
}

/// Figure 7 — every mode at `--threads`, normalized to the eager-HTM
/// baseline, with the paper's expected band for Staggered.
fn fig7(ex: &Exhibit, rows: &[Row], q: &str) {
    println!(
        "Figure 7: speedup normalized to eager HTM, {} threads{q}",
        ex.opts().threads
    );
    ex.header(&format!(
        "{:<10} {:>8} {:>9} {:>13} {:>10}   {:<22}",
        "benchmark", "HTM", "AddrOnly", "Staggered+SW", "Staggered", "paper expectation"
    ));
    let mut improvements = Vec::new();
    for row in rows {
        let htm = row.htm().cycles() as f64;
        let norm: Vec<f64> = row.modes[1..]
            .iter()
            .map(|r| htm / r.cycles() as f64)
            .collect();
        let expectation = paper::FIG7
            .iter()
            .find(|r| r.name == row.p.name())
            .map_or("", |r| r.band);
        println!(
            "{:<10} {:>8.2} {:>9.2} {:>13.2} {:>10.2}   {:<22}",
            row.p.name(),
            1.0,
            norm[0],
            norm[1],
            norm[2],
            expectation
        );
        improvements.push(norm[2]);
    }
    println!();
    println!(
        "harmonic mean of Staggered speedups over HTM: {:.2}x (paper: 1.24x)",
        harmonic_mean(&improvements)
    );
}

/// Figure 8 — (a) aborts per commit and (b) wasted-over-useful cycles,
/// baseline HTM against full Staggered, plus the paper's headline
/// reductions.
fn fig8(ex: &Exhibit, rows: &[Row], q: &str) {
    println!(
        "Figure 8: contention and wasted work, {} threads{q}",
        ex.opts().threads
    );
    ex.header(&format!(
        "{:<10} | {:>9} {:>10} {:>8} | {:>8} {:>9} {:>8}",
        "benchmark", "abts/c", "stag", "cut", "W/U", "stag", "cut"
    ));
    // 1 - after/before, or 0 when there was nothing to cut.
    let cut = |before: f64, after: f64| {
        if before > 0.0 {
            1.0 - after / before
        } else {
            0.0
        }
    };
    let mut abort_cuts = Vec::new();
    let mut waste_cuts = Vec::new();
    let mut max_cut: (f64, &str) = (0.0, "");
    for row in rows {
        let (base, stag) = (&row.htm().out.sim, &row.staggered().out.sim);
        let abort_cut = cut(base.aborts_per_commit(), stag.aborts_per_commit());
        let waste_cut = cut(base.wasted_over_useful(), stag.wasted_over_useful());
        // The paper excludes ssca2 from the average (too few aborts).
        if row.p.name() != "ssca2" {
            abort_cuts.push(abort_cut);
            waste_cuts.push(waste_cut);
            if abort_cut > max_cut.0 {
                max_cut = (abort_cut, row.p.name());
            }
        }
        println!(
            "{:<10} | {:>9.2} {:>10.2} {:>7.0}% | {:>8.2} {:>9.2} {:>7.0}%",
            row.p.name(),
            base.aborts_per_commit(),
            stag.aborts_per_commit(),
            abort_cut * 100.0,
            base.wasted_over_useful(),
            stag.wasted_over_useful(),
            waste_cut * 100.0,
        );
    }
    let avg_abort = abort_cuts.iter().sum::<f64>() / abort_cuts.len() as f64;
    let avg_waste = waste_cuts.iter().sum::<f64>() / waste_cuts.len() as f64;
    println!();
    println!(
        "max abort reduction: {:.0}% in {} (paper: {:.0}% in intruder)",
        max_cut.0 * 100.0,
        max_cut.1,
        paper::FIG8_MAX_ABORT_REDUCTION * 100.0
    );
    println!(
        "average abort reduction (excl. ssca2): {:.0}% (paper: {:.0}%)",
        avg_abort * 100.0,
        paper::FIG8_AVG_ABORT_REDUCTION * 100.0
    );
    println!(
        "average wasted-cycle reduction: {:.0}% (paper: {:.0}%)",
        avg_waste * 100.0,
        paper::FIG8_AVG_WASTE_REDUCTION * 100.0
    );
}

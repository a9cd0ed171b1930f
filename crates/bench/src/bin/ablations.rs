//! Ablation studies for the design choices DESIGN.md calls out, plus the
//! paper's future-work directions:
//!
//! 1. **Conflict-resolution protocol** — eager vs. lazy HTM ("we also plan
//!    to extend our simulations to lazy TM protocols", Section 8; the
//!    mechanism "should be compatible with most conflict resolution
//!    techniques", Section 1).
//! 2. **PC-tag width** — the paper argues 12 bits suffice (Section 4);
//!    sweep the width and watch anchor-identification accuracy degrade as
//!    tags alias.
//! 3. **Advisory-lock timeout** — the liveness escape of Section 2.
//! 4. **Thread scaling** — speedup curves for a contended and an
//!    uncontended benchmark.
//!
//! Run with: `cargo run -p stagger-bench --release --bin ablations`
//!
//! Each workload is compiled once and shared across sections; each
//! section's runs go through the parallel job runner.

use htm_sim::{HtmProtocol, MachineConfig};
use stagger_bench::{CommonOpts, Exhibit};
use stagger_core::{Mode, RuntimeConfig};
use workloads::{PreparedWorkload, Workload};

fn main() {
    let opts = CommonOpts::from_args();
    let ex = Exhibit::new("ablations", &opts);
    let report = ex.report();
    let threads = opts.threads;

    // Compile each distinct workload once, up front (sections share them).
    let shared: Vec<Box<dyn Workload>> = vec![
        Box::new(workloads::kmeans::Kmeans::tiny()),
        Box::new(workloads::list::ListBench::tiny(60, 20)),
        Box::new(workloads::memcached::Memcached::tiny()),
        Box::new(workloads::ssca2::Ssca2::tiny()),
    ];
    let prepared = ex.prepare(&shared);
    let (p_kmeans, p_list, p_memcached, p_ssca2) =
        (&prepared[0], &prepared[1], &prepared[2], &prepared[3]);

    // ---- 1. eager vs lazy ------------------------------------------------
    println!("== Ablation 1: conflict-resolution protocol (HTM vs Staggered, {threads} threads)\n");
    println!(
        "{:<10} {:<7} | {:>10} {:>8} | {:>10} {:>8} | {:>7}",
        "benchmark", "proto", "HTM cyc", "abts/c", "Stag cyc", "abts/c", "abt cut"
    );
    let set = [p_kmeans, p_list, p_memcached];
    let cases: Vec<(&PreparedWorkload, HtmProtocol, Mode)> = set
        .iter()
        .flat_map(|&p| {
            [HtmProtocol::Eager, HtmProtocol::Lazy]
                .into_iter()
                .flat_map(move |proto| {
                    [Mode::Htm, Mode::Staggered].map(move |mode| (p, proto, mode))
                })
        })
        .collect();
    let runs = report.pool(
        cases
            .iter()
            .map(|&(p, proto, mode)| {
                move || {
                    let mcfg = MachineConfig::cores(threads).protocol(proto);
                    report.run_cfg(p, opts.seed, mcfg, RuntimeConfig::with_mode(mode))
                }
            })
            .collect(),
    );
    for (case, pair) in cases.chunks(2).zip(runs.chunks(2)) {
        let (p, proto) = (case[0].0, case[0].1);
        let (base, stag) = (&pair[0], &pair[1]);
        let b = base.out.sim.aborts_per_commit();
        let s = stag.out.sim.aborts_per_commit();
        let cut = if b > 0.0 { (1.0 - s / b) * 100.0 } else { 0.0 };
        println!(
            "{:<10} {:<7} | {:>10} {:>8.2} | {:>10} {:>8.2} | {:>6.0}%",
            p.name(),
            format!("{proto:?}"),
            base.cycles(),
            b,
            stag.cycles(),
            s,
            cut
        );
    }
    println!("\nStaggered Transactions cut aborts under both protocols — the paper's");
    println!("protocol-independence claim (Section 1) holds.\n");

    // ---- 2. PC-tag width ---------------------------------------------------
    println!("== Ablation 2: conflicting-PC tag width vs identification accuracy\n");
    println!(
        "{:<10} {:>8} {:>12} {:>10}",
        "bits", "aliases", "accuracy", "abts cut"
    );
    const BITS: [u32; 5] = [2, 4, 6, 8, 12];
    // Job 0 is the eager baseline (abort-cut reference); jobs 1.. sweep
    // the tag width under Staggered.
    let mut jobs: Vec<Box<dyn FnOnce() -> workloads::BenchResult + Send>> = Vec::new();
    jobs.push(Box::new(|| {
        report.run_cfg(
            p_memcached,
            opts.seed,
            MachineConfig::cores(threads),
            RuntimeConfig::with_mode(Mode::Htm),
        )
    }));
    for bits in BITS {
        jobs.push(Box::new(move || {
            let mcfg = MachineConfig::cores(threads).pc_tag_bits(bits);
            report.run_cfg(
                p_memcached,
                opts.seed,
                mcfg,
                RuntimeConfig::with_mode(Mode::Staggered),
            )
        }));
    }
    let runs = report.pool(jobs);
    let base_abts = runs[0].out.sim.aborts_per_commit();
    for (bits, stag) in BITS.iter().zip(&runs[1..]) {
        let cut = if base_abts > 0.0 {
            (1.0 - stag.out.sim.aborts_per_commit() / base_abts) * 100.0
        } else {
            0.0
        };
        println!(
            "{:<10} {:>8} {:>11.1}% {:>9.0}%",
            bits,
            1u64 << bits,
            stag.out.rt.accuracy() * 100.0,
            cut
        );
    }
    println!("\nNarrow tags alias instructions and misattribute aborts; accuracy and the");
    println!("resulting abort cut recover as the tag widens (the paper picks 12 bits).\n");

    // ---- 3. lock timeout --------------------------------------------------
    println!("== Ablation 3: advisory-lock acquire timeout\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "timeout", "cycles", "abts/c", "timeouts"
    );
    const TIMEOUTS: [u64; 5] = [500, 2_000, 10_000, 50_000, 200_000];
    let runs = report.pool(
        TIMEOUTS
            .map(|timeout| {
                move || {
                    let mut rt = RuntimeConfig::with_mode(Mode::Staggered);
                    rt.lock_timeout = timeout;
                    rt.min_conflict_rate = 0.3;
                    report.run_cfg(p_list, opts.seed, MachineConfig::cores(threads), rt)
                }
            })
            .into_iter()
            .collect(),
    );
    for (timeout, r) in TIMEOUTS.iter().zip(&runs) {
        println!(
            "{:<12} {:>10} {:>10.2} {:>10}",
            timeout,
            r.cycles(),
            r.out.sim.aborts_per_commit(),
            r.out.rt.lock_timeouts
        );
    }
    println!("\nVery short timeouts make waiters barge in and conflict with the holder;");
    println!("long timeouts let the advisory protocol serialize cleanly.\n");

    // ---- 4. thread scaling --------------------------------------------------
    println!("== Ablation 4: thread scaling (speedup over 1 thread)\n");
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>6} {:>7}",
        "benchmark", "1", "2", "4", "8", "16"
    );
    const SCALE_THREADS: [usize; 5] = [1, 2, 4, 8, 16];
    let curves: [(&PreparedWorkload, Mode); 3] = [
        (p_ssca2, Mode::Htm),
        (p_kmeans, Mode::Htm),
        (p_kmeans, Mode::Staggered),
    ];
    let runs = report.pool(
        curves
            .iter()
            .flat_map(|&(p, mode)| SCALE_THREADS.map(|t| move || report.run(p, mode, t, opts.seed)))
            .collect(),
    );
    for (&(p, mode), curve) in curves.iter().zip(runs.chunks(SCALE_THREADS.len())) {
        let t1 = &curve[0];
        let mut row = format!("{:<10}", format!("{}/{}", p.name(), mode.name()));
        for r in curve {
            row += &format!(" {:>6.2}", t1.cycles() as f64 / r.cycles() as f64);
        }
        println!("{row}");
    }
    ex.finish();
}

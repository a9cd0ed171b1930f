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
//! section's runs go through the parallel job runner. Every run carries
//! the common flags (`--fallback` included) plus the one knob its section
//! varies.

use htm_sim::HtmProtocol;
use stagger_bench::{CommonOpts, Exhibit};
use stagger_core::Mode;
use workloads::{BenchResult, PreparedWorkload, Workload};

/// Percent fewer aborts per commit in `stag` than in `base` (negative when
/// they rose).
fn abort_cut(base: &BenchResult, stag: &BenchResult) -> f64 {
    let b = base.out.sim.aborts_per_commit();
    if b > 0.0 {
        (1.0 - stag.out.sim.aborts_per_commit() / b) * 100.0
    } else {
        0.0
    }
}

fn main() {
    let opts = CommonOpts::from_args();
    let ex = Exhibit::new("ablations", &opts);
    let ex = &ex;
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
    let runs = ex.pool(
        cases
            .iter()
            .map(|&(p, proto, mode)| {
                move || {
                    let mut spec = ex.spec(p, mode, threads);
                    spec.machine.protocol = proto;
                    ex.run(p, &spec)
                }
            })
            .collect(),
    );
    let mut not_cut = Vec::new();
    for (case, pair) in cases.chunks(2).zip(runs.chunks(2)) {
        let (p, proto) = (case[0].0, case[0].1);
        let (base, stag) = (&pair[0], &pair[1]);
        let cut = abort_cut(base, stag);
        if cut <= 0.0 {
            not_cut.push(format!("{} {proto:?}", p.name()));
        }
        println!(
            "{:<10} {:<7} | {:>10} {:>8.2} | {:>10} {:>8.2} | {:>6.0}%",
            p.name(),
            format!("{proto:?}"),
            base.cycles(),
            base.out.sim.aborts_per_commit(),
            stag.cycles(),
            stag.out.sim.aborts_per_commit(),
            cut
        );
    }
    if not_cut.is_empty() {
        println!("\nStaggered Transactions cut aborts under both protocols — the paper's");
        println!("protocol-independence claim (Section 1) holds.\n");
    } else {
        println!(
            "\nStaggered Transactions did not cut aborts in {} of {} rows:\n{}.",
            not_cut.len(),
            cases.len() / 2,
            not_cut.join(", ")
        );
        println!("The protocol-independence claim (Section 1) does not hold here.\n");
    }

    // ---- 2. PC-tag width ---------------------------------------------------
    println!("== Ablation 2: conflicting-PC tag width vs identification accuracy\n");
    println!(
        "{:<10} {:>8} {:>12} {:>10}",
        "bits", "aliases", "accuracy", "abts cut"
    );
    const BITS: [u32; 5] = [2, 4, 6, 8, 12];
    // Job 0 is the eager baseline (abort-cut reference); jobs 1.. sweep
    // the tag width under Staggered.
    let mut specs = vec![ex.spec(p_memcached, Mode::Htm, threads)];
    for bits in BITS {
        let mut spec = ex.spec(p_memcached, Mode::Staggered, threads);
        spec.machine.pc_tag_bits = bits;
        specs.push(spec);
    }
    let runs = ex.pool(
        specs
            .iter()
            .map(|spec| move || ex.run(p_memcached, spec))
            .collect(),
    );
    // (bits, accuracy %, abort cut %) per row.
    let rows: Vec<(u32, f64, f64)> = BITS
        .iter()
        .zip(&runs[1..])
        .map(|(&bits, stag)| {
            (
                bits,
                stag.out.rt.accuracy() * 100.0,
                abort_cut(&runs[0], stag),
            )
        })
        .collect();
    for &(bits, accuracy, cut) in &rows {
        println!(
            "{:<10} {:>8} {:>11.1}% {:>9.0}%",
            bits,
            1u64 << bits,
            accuracy,
            cut
        );
    }
    let rises = rows.windows(2).all(|w| w[0].1 <= w[1].1);
    let best = rows
        .iter()
        .fold(rows[0], |b, &r| if r.2 > b.2 { r } else { b });
    let (first, last) = (rows[0], rows[rows.len() - 1]);
    println!(
        "\nAccuracy {} with tag width, from {:.1}% at {} bits to {:.1}% at {}: narrow",
        if rises {
            "rises"
        } else {
            "does not rise steadily"
        },
        first.1,
        first.0,
        last.1,
        last.0
    );
    println!("tags alias instructions and misattribute aborts. The abort cut is largest");
    if best.0 == last.0 {
        println!("at {} bits, the paper's choice ({:.0}%).\n", last.0, last.2);
    } else {
        println!(
            "at {} bits ({:.0}%); at {} bits, the paper's choice, it is {:.0}%.\n",
            best.0, best.2, last.0, last.2
        );
    }

    // ---- 3. lock timeout --------------------------------------------------
    println!("== Ablation 3: advisory-lock acquire timeout\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "timeout", "cycles", "abts/c", "timeouts"
    );
    const TIMEOUTS: [u64; 5] = [500, 2_000, 10_000, 50_000, 200_000];
    let runs = ex.pool(
        TIMEOUTS
            .map(|timeout| {
                move || {
                    let mut spec = ex.spec(p_list, Mode::Staggered, threads);
                    spec.runtime.lock_timeout = timeout;
                    spec.runtime.min_conflict_rate = 0.3;
                    ex.run(p_list, &spec)
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
    let runs = ex.pool(
        curves
            .iter()
            .flat_map(|&(p, mode)| SCALE_THREADS.map(|t| move || ex.run(p, &ex.spec(p, mode, t))))
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

//! End-to-end timing benches: tiny versions of representative benchmarks
//! across all four execution modes. These measure *host* wall time of a
//! full simulated run — useful for tracking simulator/runtime performance
//! regressions; the paper's *simulated-cycle* comparisons come from the
//! `paper` binary.
//!
//! Plain `fn main` harness (no external bench framework): each case runs a
//! warm-up pass plus `ITERS` timed iterations and prints the mean wall
//! time per iteration. Run with `cargo bench --bench end_to_end`.

use std::hint::black_box;
use std::time::Instant;

use stagger_core::Mode;
use workloads::{PreparedWorkload, Workload};

const ITERS: u32 = 10;

/// Time `f` over `ITERS` iterations (after one warm-up call) and print the
/// mean per-iteration wall time.
fn time_case(label: &str, mut f: impl FnMut()) {
    f();
    let t0 = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    let per = t0.elapsed() / ITERS;
    println!("{label:<44} {:>12.3} ms/iter", per.as_secs_f64() * 1e3);
}

fn bench_modes() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(workloads::list::ListBench::tiny(60, 20)),
        Box::new(workloads::kmeans::Kmeans::tiny()),
        Box::new(workloads::memcached::Memcached::tiny()),
    ];
    for w in &workloads {
        let p = PreparedWorkload::new(w.as_ref());
        for mode in Mode::ALL {
            time_case(&format!("modes/{}/{}", w.name(), mode.name()), || {
                black_box(p.run(mode, 4, 7));
            });
        }
    }
}

fn bench_thread_scaling() {
    let w = workloads::ssca2::Ssca2::tiny();
    let p = PreparedWorkload::new(&w);
    for threads in [1usize, 2, 4, 8] {
        time_case(&format!("scaling/ssca2/{threads}"), || {
            black_box(p.run(Mode::Staggered, threads, 3));
        });
    }
}

fn main() {
    bench_modes();
    bench_thread_scaling();
}

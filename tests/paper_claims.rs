//! Reduced-scale checks of the paper's qualitative results (Section 6):
//! the full-scale numbers live in `cargo run -p stagger-bench --bin paper`
//! and EXPERIMENTS.md; these tests pin the directional claims so a
//! regression in the mechanism is caught by `cargo test`.

use stagger_core::Mode;
use workloads::run_benchmark;

/// Result 3: "Staggered Transactions reduce contention ... for most
/// applications" — abort reduction on the contended benchmarks.
#[test]
fn result3_abort_reduction_on_contended_benchmarks() {
    let w = workloads::intruder::Intruder::tiny();
    let base = run_benchmark(&w, Mode::Htm, 8, 17);
    let stag = run_benchmark(&w, Mode::Staggered, 8, 17);
    let b = base.out.sim.aborts_per_commit();
    let s = stag.out.sim.aborts_per_commit();
    assert!(b > 0.5, "intruder must contend at 8 threads ({b:.2})");
    assert!(
        s < b * 0.5,
        "staggering must cut intruder aborts by >50%: {b:.2} -> {s:.2}"
    );
}

/// Result 1 (second half): no slowdown for low-contention applications.
#[test]
fn result1_no_slowdown_for_low_contention() {
    let mut w = workloads::ssca2::Ssca2::tiny();
    w.total_ops = 2048;
    let base = run_benchmark(&w, Mode::Htm, 8, 19);
    let stag = run_benchmark(&w, Mode::Staggered, 8, 19);
    let ratio = stag.cycles() as f64 / base.cycles() as f64;
    assert!(ratio < 1.1, "low-contention slowdown {ratio:.3} too high");
}

/// Result 2: conflicting addresses stable (intruder) → precise mode works;
/// wandering addresses (kmeans) → coarse-grain activation engages.
#[test]
fn result2_policy_uses_both_precise_and_coarse() {
    let w = workloads::intruder::Intruder::tiny();
    let stag = run_benchmark(&w, Mode::Staggered, 8, 23);
    assert!(
        stag.out.rt.act_precise > 0,
        "intruder's stable queue addresses should trigger precise mode"
    );

    let mut k = workloads::kmeans::Kmeans::tiny();
    k.n_points = 600;
    k.n_clusters = 8;
    let stag = run_benchmark(&k, Mode::Staggered, 8, 29);
    assert!(
        stag.out.rt.act_coarse > 0,
        "kmeans' wandering cluster addresses should trigger coarse mode"
    );
}

/// Section 6.1: instrumentation is a small subset of loads/stores and the
/// runtime identifies the right anchor for nearly all aborts.
#[test]
fn instrumentation_accuracy_above_95_percent() {
    let w = workloads::memcached::Memcached::tiny();
    let stag = run_benchmark(&w, Mode::Staggered, 8, 31);
    let acc = stag.out.rt.accuracy();
    assert!(
        acc > 0.95,
        "anchor identification accuracy {acc:.3} below the paper's 95% floor"
    );
}

/// The hardware-CPC mode must identify anchors at least as well as the
/// software alternative (Section 6.2's Staggered vs Staggered+SW gap).
#[test]
fn hardware_cpc_attribution_beats_software() {
    let w = workloads::list::ListBench::tiny(60, 20);
    let hw = run_benchmark(&w, Mode::Staggered, 8, 37);
    let sw = run_benchmark(&w, Mode::StaggeredSw, 8, 37);
    assert!(
        hw.out.rt.accuracy() >= sw.out.rt.accuracy(),
        "hw {:.3} vs sw {:.3}",
        hw.out.rt.accuracy(),
        sw.out.rt.accuracy()
    );
}

/// Capacity-bound transactions always complete via the irrevocable path —
/// the fallback the paper's runtime guarantees forward progress with.
#[test]
fn forward_progress_under_pathological_contention() {
    // A single hot counter with maximum threads: everything conflicts, yet
    // every transaction completes.
    let mut w = workloads::kmeans::Kmeans::tiny();
    w.n_points = 320;
    w.n_clusters = 1; // all points hit one accumulator
    for mode in Mode::ALL {
        let r = run_benchmark(&w, mode, 8, 41);
        assert_eq!(
            r.out.exec.committed_txns + r.out.exec.irrevocable_txns,
            320,
            "{}",
            mode.name()
        );
    }
}

//! Event-driven waiting is invisible: a run whose spin-waits are parked and
//! fast-forwarded (`Core::spin_wait`) must be *byte-identical* to the same run
//! polling every iteration (`Machine::poll_every_spin`) — per-core
//! statistics, complete cycle-stamped observability event streams, runtime
//! statistics and thread return values. The polled run is the semantics;
//! parking may only change what the host executes.

use htm_sim::{FallbackPolicy, Machine, MachineConfig, SchedStats};
use stagger_bench::workload_set;
use stagger_core::{Mode, RtStats, RuntimeConfig};
use workloads::PreparedWorkload;

const FALLBACKS: [FallbackPolicy; 3] = [
    FallbackPolicy::Irrevocable,
    FallbackPolicy::HybridStm,
    FallbackPolicy::LazySubscriptionSafe,
];

/// Everything a run produced that the simulation determines.
type Artifacts = (
    htm_sim::SimStats,
    Vec<Vec<htm_sim::ObsEvent>>,
    RtStats,
    Vec<u64>,
);

fn run(
    p: &PreparedWorkload,
    mode: Mode,
    fallback: FallbackPolicy,
    threads: usize,
    polled: bool,
) -> (Artifacts, SchedStats) {
    let cfg = MachineConfig::cores(threads)
        .fallback(fallback)
        .record_events();
    let machine = Machine::new(cfg);
    if polled {
        machine.poll_every_spin();
    }
    let r = p.run_on(&machine, &RuntimeConfig::with_mode(mode), 2015);
    assert!(
        machine.events_dropped().iter().all(|&d| d == 0),
        "{}: an event ring wrapped, the streams compared would be truncated",
        p.name()
    );
    let artifacts = (
        machine.stats(),
        machine.take_events(),
        r.out.rt,
        r.out.returns,
    );
    (artifacts, r.out.sched)
}

/// Elided and polled runs of one cell agree; returns the elided run's
/// host-side counters.
fn assert_invisible(
    p: &PreparedWorkload,
    mode: Mode,
    fallback: FallbackPolicy,
    threads: usize,
) -> SchedStats {
    let (want, polled) = run(p, mode, fallback, threads, true);
    let (got, sched) = run(p, mode, fallback, threads, false);
    let cell = format!(
        "{} [{} / {} x{threads}]",
        p.name(),
        mode.name(),
        fallback.name()
    );
    assert_eq!((polled.parks, polled.elided_ops), (0, 0), "{cell}");
    assert_eq!(got.0, want.0, "{cell}: per-core stats diverged");
    assert_eq!(got.1, want.1, "{cell}: event streams diverged");
    assert_eq!(got.2, want.2, "{cell}: runtime stats diverged");
    assert_eq!(got.3, want.3, "{cell}: thread return values diverged");
    sched
}

/// The ten quick workloads in all four modes under the three fallback
/// policies that wait differently (global lock, ownership stripes,
/// commit-time validation), at the paper's 16 cores.
#[test]
fn elided_runs_match_polled_runs_at_16_cores() {
    let set = workload_set(true);
    assert_eq!(set.len(), 10);
    let mut elided = 0;
    for w in &set {
        let p = PreparedWorkload::new(w.as_ref());
        for mode in Mode::ALL {
            for fallback in FALLBACKS {
                elided += assert_invisible(&p, mode, fallback, 16).elided_ops;
            }
        }
    }
    assert!(elided > 0, "no cell ever parked: the comparison is vacuous");
}

/// The benchmark's widest list-hi cell, where nine in ten gated ops are
/// spin polls.
#[test]
fn elided_runs_match_polled_runs_on_list_hi_at_64_cores() {
    let set = workload_set(true);
    let w = set.iter().find(|w| w.name() == "list-hi").unwrap();
    let p = PreparedWorkload::new(w.as_ref());
    for mode in [Mode::Htm, Mode::Staggered] {
        let sched = assert_invisible(&p, mode, FallbackPolicy::Irrevocable, 64);
        assert!(sched.parks > 0 && sched.elided_ops > 0);
    }
}

/// One core never waits for anybody: no run parks, so the single-core
/// benchmark workload takes none of the new paths.
#[test]
fn single_core_runs_never_park() {
    for w in &workload_set(true) {
        let p = PreparedWorkload::new(w.as_ref());
        for mode in Mode::ALL {
            let (_, sched) = run(&p, mode, FallbackPolicy::Irrevocable, 1, false);
            assert_eq!(sched.parks, 0, "{} [{}]", w.name(), mode.name());
        }
    }
}

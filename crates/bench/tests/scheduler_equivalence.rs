//! The tentpole invariant of the host-side schedulers: for every
//! workload, the single-threaded cooperative driver and the legacy
//! thread-per-core driver produce *byte-identical* simulations — same
//! per-core statistics, same execution cycles, same complete cycle-stamped
//! observability event streams, same thread return values. The schedulers
//! may only differ in host-side mechanics, never in what the simulated
//! machine does.

use htm_sim::{FallbackPolicy, Machine, MachineConfig, ObsEvent, Scheduler};
use stagger_bench::workload_set;
use stagger_core::{Mode, RuntimeConfig};
use workloads::PreparedWorkload;

/// Everything one simulation produced: stats snapshot, observability
/// event streams, thread return values.
type RunArtifacts = (htm_sim::SimStats, Vec<Vec<ObsEvent>>, Vec<u64>);

/// Run one prepared workload under the given scheduler.
fn run_under(
    p: &PreparedWorkload,
    scheduler: Scheduler,
    mode: Mode,
    threads: usize,
    seed: u64,
) -> RunArtifacts {
    run_cfg_under(p, scheduler, mode, threads, seed, |c| c)
}

/// Same, with a machine-config mutation applied before the run (how the
/// protocol-matrix rows select their fallback/capacity variants).
fn run_cfg_under(
    p: &PreparedWorkload,
    scheduler: Scheduler,
    mode: Mode,
    threads: usize,
    seed: u64,
    cfg: impl Fn(MachineConfig) -> MachineConfig,
) -> RunArtifacts {
    let mut mcfg = cfg(MachineConfig::cores(threads));
    mcfg.scheduler = scheduler;
    mcfg.record_events = true;
    let machine = Machine::new(mcfg);
    let r = p.run_on(&machine, &RuntimeConfig::with_mode(mode), seed);
    assert!(
        machine.events_dropped().iter().all(|&d| d == 0),
        "{}: an event ring wrapped, the streams compared would be truncated",
        p.name()
    );
    (machine.stats(), machine.take_events(), r.out.returns)
}

fn assert_identical(a: &RunArtifacts, b: &RunArtifacts, name: &str, mode: Mode, other: &str) {
    assert_eq!(
        a.0,
        b.0,
        "{name} [{}]: per-core stats diverged (cooperative vs {other})",
        mode.name()
    );
    assert_eq!(
        a.1,
        b.1,
        "{name} [{}]: event streams diverged (cooperative vs {other})",
        mode.name()
    );
    assert_eq!(
        a.2,
        b.2,
        "{name} [{}]: thread return values diverged (cooperative vs {other})",
        mode.name()
    );
}

/// All ten workloads (`--quick` configs), both contended modes, both
/// schedulers: stats, events and returns must match exactly.
#[test]
fn all_schedulers_are_bit_identical() {
    let set = workload_set(true);
    assert_eq!(set.len(), 10);
    for w in &set {
        let p = PreparedWorkload::new(w.as_ref());
        for mode in [Mode::Htm, Mode::Staggered] {
            let coop = run_under(&p, Scheduler::Cooperative, mode, 4, 2015);
            let thr = run_under(&p, Scheduler::Threaded, mode, 4, 2015);
            assert_identical(&coop, &thr, w.name(), mode, "threaded");
        }
    }
}

/// The protocol matrix rides the same invariant: each fallback/capacity
/// variant (instrumented hybrid software path, hardware commit-time lock
/// validation, bounded read/write sets) must simulate byte-identically
/// under both schedulers. Two workloads keep the suite bounded:
/// `list-hi` exercises heavy fallback traffic (bounded-set turns most of
/// its transactions into capacity storms), `memcached` the low-contention
/// fast path.
#[test]
fn protocol_variants_are_bit_identical_across_schedulers() {
    type Variant = (&'static str, fn(MachineConfig) -> MachineConfig);
    let variants: [Variant; 3] = [
        ("hybrid-stm", |c| c.fallback(FallbackPolicy::HybridStm)),
        ("lazy-subscription-safe", |c| {
            c.fallback(FallbackPolicy::LazySubscriptionSafe)
        }),
        ("bounded-set", |c| c.bounded_sets(16, 8)),
    ];
    for w in workload_set(true) {
        if w.name() != "list-hi" && w.name() != "memcached" {
            continue;
        }
        let p = PreparedWorkload::new(w.as_ref());
        for mode in [Mode::Htm, Mode::Staggered] {
            for (variant, cfg) in variants {
                let tag = format!("{} ({variant})", w.name());
                let coop = run_cfg_under(&p, Scheduler::Cooperative, mode, 4, 2015, cfg);
                let thr = run_cfg_under(&p, Scheduler::Threaded, mode, 4, 2015, cfg);
                assert_identical(&coop, &thr, &tag, mode, "threaded");
            }
        }
    }
}

/// The same identity past the old 32-core ownership-mask boundary: the two
/// `scaling`-exhibit workloads at 64 cores, both modes, both schedulers.
/// Kept to two workloads so the suite stays bounded.
#[test]
fn schedulers_are_bit_identical_at_64_cores() {
    for w in workload_set(true) {
        if w.name() != "list-hi" && w.name() != "memcached" {
            continue;
        }
        let p = PreparedWorkload::new(w.as_ref());
        for mode in [Mode::Htm, Mode::Staggered] {
            let coop = run_under(&p, Scheduler::Cooperative, mode, 64, 2015);
            let thr = run_under(&p, Scheduler::Threaded, mode, 64, 2015);
            assert_identical(&coop, &thr, w.name(), mode, "threaded@64");
        }
    }
}

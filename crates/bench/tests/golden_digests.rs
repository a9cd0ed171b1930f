//! Golden digests: every cell below must reproduce the [`run_digest`]
//! recorded for it in `golden/quick.digests` — per-core statistics, the
//! whole observability event stream, thread returns, runtime and execution
//! counters. This is the regression protection that a second implementation
//! used to provide: a change that claims simulated output is bit-identical
//! keeps the file byte for byte. A change that means to move a cell edits
//! its line by hand, from the digest the failure prints.

use htm_sim::MachineConfig;
use stagger_bench::digest::{golden_cells, golden_mismatches};
use stagger_bench::{run_digest, workload_set};
use stagger_core::{Mode, RuntimeConfig};
use workloads::{BenchResult, PreparedWorkload};

const RECORDED: &str = include_str!("golden/quick.digests");
const SEED: u64 = 2015;

/// Every cell the file records: all four modes at 4 and 16 cores for each
/// quick workload; list-hi and memcached also under the two fallback
/// policies that wait differently, with bounded read/write sets at 4
/// cores, and at 64 cores (list-hi in all four modes); ssca2 under HTM
/// at 256 cores; and serve-flash-i600 under HTM and Staggered at 4 cores.
#[test]
fn quick_cells_match_their_recorded_digests() {
    let cells = golden_cells(RECORDED).unwrap();
    // A cell leaves the file only by a deliberate edit of this count.
    assert_eq!(cells.len(), 101);
    let bad = golden_mismatches(&cells);
    assert!(bad.is_empty(), "golden digests differ:\n{}", bad.join("\n"));
}

/// The digest moves with each part of a run it claims to cover.
#[test]
fn digest_covers_stats_events_returns_and_counters() {
    let set = workload_set(true);
    let w = set.iter().find(|w| w.name() == "list-hi").unwrap();
    let p = PreparedWorkload::new(w.as_ref());
    let r = p.run_cfg(
        SEED,
        MachineConfig::cores(4).record_events(),
        RuntimeConfig::with_mode(Mode::Staggered),
    );
    let base = run_digest(&r);
    assert_eq!(base, run_digest(&r.clone()));
    let moves = |mutate: &dyn Fn(&mut BenchResult)| {
        let mut m = r.clone();
        mutate(&mut m);
        run_digest(&m) != base
    };
    assert!(moves(&|m| m.out.sim.cores[3].nt_mem_ops += 1), "core stats");
    assert!(moves(&|m| m.events[2][0].clock += 1), "event clocks");
    assert!(moves(&|m| m.events[1].truncate(1)), "event count");
    assert!(moves(&|m| m.out.returns[0] ^= 1), "thread returns");
    assert!(
        moves(&|m| m.out.rt.addr_hist.bump(u64::MAX)),
        "runtime histograms"
    );
    assert!(
        moves(&|m| m.out.exec.committed_anchors += 1),
        "exec counters"
    );
}

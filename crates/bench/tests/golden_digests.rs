//! Golden digests: every cell below must reproduce the [`run_digest`]
//! recorded for it in `golden/quick.digests` — per-core statistics, the
//! whole observability event stream, thread returns, runtime and execution
//! counters. This is the regression protection that a second implementation
//! used to provide: a change that claims simulated output is bit-identical
//! keeps the file byte for byte. A change that means to move a cell edits
//! its line by hand, from the digest the failure prints.

use htm_sim::{FallbackPolicy, MachineConfig};
use stagger_bench::{run_digest, workload_set};
use stagger_core::{Mode, RuntimeConfig};
use std::collections::BTreeMap;
use workloads::{BenchResult, PreparedWorkload};

const RECORDED: &str = include_str!("golden/quick.digests");
const SEED: u64 = 2015;

/// `(cores, mode, fallback, bounded_sets arguments)`.
type Cell = (usize, Mode, FallbackPolicy, Option<(usize, usize)>);

/// The cells of one quick workload: all four modes at 4 and 16 cores; the
/// two `scaling` workloads also under the two fallback policies that wait
/// differently, with bounded read/write sets at 4 cores, and at 64 cores
/// (list-hi in all four modes).
fn cells_of(workload: &str) -> Vec<Cell> {
    let mut cells = Vec::new();
    for cores in [4, 16] {
        for mode in Mode::ALL {
            cells.push((cores, mode, FallbackPolicy::Irrevocable, None));
        }
    }
    if workload == "list-hi" || workload == "memcached" {
        for mode in [Mode::Htm, Mode::Staggered] {
            for fallback in [
                FallbackPolicy::HybridStm,
                FallbackPolicy::LazySubscriptionSafe,
            ] {
                cells.push((16, mode, fallback, None));
            }
            cells.push((4, mode, FallbackPolicy::Irrevocable, Some((16, 8))));
        }
        let at_64: &[Mode] = if workload == "list-hi" {
            &Mode::ALL
        } else {
            &[Mode::Htm, Mode::Staggered]
        };
        for &mode in at_64 {
            cells.push((64, mode, FallbackPolicy::Irrevocable, None));
        }
    }
    cells
}

fn digest_of(p: &PreparedWorkload, mcfg: MachineConfig, mode: Mode) -> String {
    let r = p.run_cfg(SEED, mcfg, RuntimeConfig::with_mode(mode));
    assert!(
        r.events_dropped.iter().all(|&d| d == 0),
        "{}: an event ring wrapped, the digest would cover a truncated stream",
        p.name()
    );
    format!("{:016x}", run_digest(&r))
}

#[test]
fn quick_cells_match_their_recorded_digests() {
    let recorded: BTreeMap<&str, &str> = RECORDED
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once(' ').expect("line is `<cell> <digest>`"))
        .collect();

    let mut seen = 0;
    let mut bad = Vec::new();
    for w in workload_set(true) {
        let p = PreparedWorkload::new(w.as_ref());
        for (cores, mode, fallback, bounded) in cells_of(w.name()) {
            let mut cell = format!("{}/{}/{cores}/{}", w.name(), mode.name(), fallback.name());
            let mut mcfg = MachineConfig::cores(cores)
                .fallback(fallback)
                .record_events();
            if let Some((reads, writes)) = bounded {
                cell.push_str(&format!("/bounded-{reads}-{writes}"));
                mcfg = mcfg.bounded_sets(reads, writes);
            }
            let got = digest_of(&p, mcfg, mode);
            match recorded.get(cell.as_str()) {
                Some(&want) => {
                    seen += 1;
                    if want != got {
                        bad.push(format!("{cell}: recorded {want}, computed {got}"));
                    }
                }
                None => bad.push(format!("{cell}: not recorded, computed {got}")),
            }
        }
    }
    if seen != recorded.len() {
        bad.push(format!(
            "{} recorded cells are no longer run",
            recorded.len() - seen
        ));
    }
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

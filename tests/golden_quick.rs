//! Tier-1's regression net for simulated output: 29 of the 101 golden
//! cells in `crates/bench/tests/golden/quick.digests` are recomputed and
//! must reproduce the digests recorded there (per-core statistics, event
//! streams, thread returns, runtime and execution counters). The whole
//! file is checked by `stagger-bench`'s `golden_digests` test; this subset
//! keeps a model change that moves any simulated number from passing the
//! root tests while staying a few seconds of a debug run. Its one cell
//! above 128 cores puts transactions on cores whose bits live in the
//! upper words of a `CoreSet`, where a debug build checks every read and
//! write set against the directory's bits.

use htm_sim::FallbackPolicy;
use stagger_bench::digest::{golden_cells, golden_mismatches};
use stagger_core::Mode;

const RECORDED: &str = include_str!("../crates/bench/tests/golden/quick.digests");

#[test]
fn quick_subset_matches_recorded_digests() {
    let cells = golden_cells(RECORDED).unwrap();
    // Every workload (serve-flash-i600 included) under HTM and Staggered
    // at 4 cores, every cell above 128 cores, and list-hi under each other
    // fallback policy and under bounded sets.
    let subset: Vec<_> = cells
        .iter()
        .filter(|(c, _)| {
            let default = c.fallback == FallbackPolicy::Irrevocable && c.bounded.is_none();
            if default {
                (c.cores == 4 && matches!(c.mode, Mode::Htm | Mode::Staggered)) || c.cores > 128
            } else {
                c.workload == "list-hi"
            }
        })
        .collect();
    assert_eq!(subset.len(), 29);
    let bad = golden_mismatches(subset);
    assert!(bad.is_empty(), "golden digests differ:\n{}", bad.join("\n"));
}

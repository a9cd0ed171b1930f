//! The sweep engine's two contracts, end to end against the real
//! simulator:
//!
//! 1. **Spec round-trip** — a serialized [`RunSpec`] parses back to a
//!    configuration that simulates bit-identically (same cycles,
//!    instructions, commits).
//! 2. **Byte-identical resume** — a sweep interrupted mid-grid
//!    (`max_cells`) and then resumed produces the exact same JSON/CSV
//!    tables as an uninterrupted sweep, and the resumed invocation does
//!    zero recomputation for cached cells; a cell file that does not parse
//!    is recomputed, and one that cannot be saved fails the sweep.

use stagger_bench::sweep::{
    cell_dir, run_sweep, sweep_csv, sweep_json, Axis, CellMetrics, CellResult, SweepSpec,
};
use stagger_bench::RunSpec;
use stagger_core::Mode;
use std::path::PathBuf;
use workloads::PreparedWorkload;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stagger-sweep-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn run_spec_round_trips_through_text_to_identical_cycles() {
    let mut spec = RunSpec::new("ssca2", Mode::Staggered, 4, 11);
    spec.quick = true;
    spec.machine = spec.machine.pc_tag_bits(8).small();
    spec.runtime.lock_timeout = 7_000;
    spec.runtime.min_conflict_rate = 0.25;

    let text = spec.canon();
    let parsed = RunSpec::parse(&text).expect("canonical text parses");
    assert_eq!(parsed.canon(), text, "canon is a fixed point");
    assert_eq!(parsed.run_key(), spec.run_key());

    let w = workloads::workload_by_name(&spec.workload, spec.quick).unwrap();
    let p = PreparedWorkload::new(w.as_ref());
    let a = spec.run(&p);
    let b = parsed.run(&p);
    assert_eq!(a.cycles(), b.cycles(), "parsed spec simulates identically");
    assert_eq!(a.sim_insts(), b.sim_insts());
    assert_eq!(a.out.exec.committed_txns, b.out.exec.committed_txns);
}

/// The protocol-matrix fields ride the same contract: a spec carrying a
/// non-default fallback policy or bounded read/write sets serializes,
/// parses back, and the parsed spec simulates bit-identically.
#[test]
fn fallback_and_capacity_fields_round_trip_through_runs() {
    // Contended enough that the safe lazy-subscription run has commit-time
    // subscription aborts.
    let mut base = RunSpec::new("memcached", Mode::Htm, 8, 11);
    base.quick = true;

    for (key, value) in [
        ("machine.fallback", "hybrid-stm"),
        ("machine.fallback", "lazy-subscription-safe"),
        ("variant", "bounded-set"),
    ] {
        let mut spec = base.clone();
        spec.set_field(key, value).expect("protocol fields apply");
        assert_ne!(
            spec.run_key(),
            base.run_key(),
            "{key}={value} forks the run key"
        );

        let text = spec.canon();
        let parsed = RunSpec::parse(&text).expect("canonical text parses");
        assert_eq!(parsed.canon(), text, "canon is a fixed point");
        assert_eq!(parsed.run_key(), spec.run_key());

        let w = workloads::workload_by_name(&spec.workload, spec.quick).unwrap();
        let p = PreparedWorkload::new(w.as_ref());
        let a = spec.run(&p);
        let b = parsed.run(&p);
        assert_eq!(a.cycles(), b.cycles(), "parsed spec simulates identically");
        assert_eq!(a.sim_insts(), b.sim_insts());
        assert_eq!(a.out.exec.committed_txns, b.out.exec.committed_txns);

        if value == "lazy-subscription-safe" {
            // The table carries the run's commit-time subscription aborts.
            let cell = CellResult {
                spec: spec.clone(),
                metrics: CellMetrics::from_result(&a),
            };
            let one = SweepSpec {
                name: "one".to_string(),
                base: spec.clone(),
                axes: Vec::new(),
            };
            let json = sweep_json(&one, &one.cells().unwrap(), &[&cell]);
            let agg = a.out.sim.aggregate();
            assert!(agg.subscription_aborts > 0);
            let n = agg.subscription_aborts;
            assert!(
                json.contains(&format!("\"subscription_aborts\": {n},")),
                "{json}"
            );
        }
    }
}

#[test]
fn interrupted_sweep_resumes_to_byte_identical_tables() {
    let mut base = RunSpec::new("ssca2", Mode::Htm, 4, 11);
    base.quick = true;
    let spec = SweepSpec {
        name: "resume-test".to_string(),
        base,
        axes: vec![
            Axis::new("mode", &["HTM", "Staggered"]),
            Axis::new("machine.pc_tag_bits", &["4", "12"]),
        ],
    };
    let grid = spec.cells().unwrap();
    assert_eq!(grid.len(), 4);

    // Uninterrupted reference run.
    let dir_a = scratch_dir("uninterrupted");
    let full = run_sweep(&spec, &dir_a, 2, None, None).unwrap();
    assert!(full.is_complete());
    assert_eq!((full.cached, full.computed), (0, 4));
    let cells_a = full.complete_cells();
    let json_a = sweep_json(&spec, &grid, &cells_a);
    let csv_a = sweep_csv(&spec, &grid, &cells_a);

    // Both tables carry every counter a cell holds, one column each, plus
    // the two derived ratios. The `mode` axis has a leading column of its
    // own, so the CSV does not repeat it.
    let keys: Vec<&str> = CellMetrics::keys().collect();
    let header: Vec<&str> = csv_a.lines().next().unwrap().split(',').collect();
    assert_eq!(header[5], "machine.pc_tag_bits", "{header:?}");
    let metrics = &header[6..];
    assert_eq!(metrics.len(), keys.len() + 2, "{header:?}");
    assert_eq!(&metrics[..keys.len()], keys);
    assert_eq!(&metrics[keys.len()..], ["aborts_per_commit", "accuracy"]);
    let mut unique = header.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), header.len(), "a repeated column: {header:?}");
    let rows: Vec<&str> = json_a.lines().filter(|l| l.contains("run_key")).collect();
    assert_eq!(rows.len(), grid.len());
    for row in rows {
        for key in &keys {
            assert_eq!(
                row.matches(&format!("\"{key}\": ")).count(),
                1,
                "{key}: {row}"
            );
        }
    }

    // Interrupted run: one cell per invocation, four invocations.
    let dir_b = scratch_dir("interrupted");
    for step in 0..4 {
        let partial = run_sweep(&spec, &dir_b, 2, Some(1), None).unwrap();
        assert_eq!(partial.cached, step);
        assert_eq!(partial.computed, 1);
        assert_eq!(partial.remaining, 3 - step);
        assert_eq!(partial.is_complete(), step == 3);
    }
    // The resume pass after completion recomputes nothing.
    let resumed = run_sweep(&spec, &dir_b, 2, None, None).unwrap();
    assert!(resumed.is_complete());
    assert_eq!((resumed.cached, resumed.computed), (4, 0), "100% cache hit");

    let cells_b = resumed.complete_cells();
    assert_eq!(
        sweep_json(&spec, &grid, &cells_b),
        json_a,
        "resumed JSON table is byte-identical"
    );
    assert_eq!(
        sweep_csv(&spec, &grid, &cells_b),
        csv_a,
        "resumed CSV table is byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A cell file that does not parse — written before a counter was
/// persisted, or cut short — is recomputed and rewritten, and the tables
/// come out as from a clean cache.
#[test]
fn unparsable_cells_are_recomputed() {
    let mut base = RunSpec::new("ssca2", Mode::Htm, 4, 11);
    base.quick = true;
    let spec = SweepSpec {
        name: "corrupt-test".to_string(),
        base,
        axes: vec![Axis::new("mode", &["HTM", "Staggered", "Staggered+SW"])],
    };
    let grid = spec.cells().unwrap();
    let dir = scratch_dir("corrupt");
    let clean = run_sweep(&spec, &dir, 2, None, None).unwrap();
    let json = sweep_json(&spec, &grid, &clean.complete_cells());

    let cells = cell_dir(&dir, &spec.name);
    let paths: Vec<PathBuf> = grid
        .iter()
        .map(|c| cells.join(format!("{}.cell", c.spec.run_key())))
        .collect();
    let good: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    let old_format: String = good[0]
        .lines()
        .filter(|l| !l.starts_with("result.subscription_aborts="))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&paths[0], old_format).unwrap();
    std::fs::write(&paths[1], &good[1][..good[1].len() / 2]).unwrap();
    // The 16 counters a cell carried before it held every `CoreStats` and
    // `RtStats` counter.
    let parent_keys = [
        "sim_cycles",
        "sim_insts",
        "commits",
        "irrevocable_commits",
        "conflict_aborts",
        "capacity_aborts",
        "explicit_aborts",
        "subscription_aborts",
        "useful_tx_cycles",
        "wasted_tx_cycles",
        "lock_wait_cycles",
        "backoff_cycles",
        "locks_acquired",
        "lock_timeouts",
        "contention_aborts",
        "anchor_correct",
    ];
    let parent_format: String = good[2]
        .lines()
        .filter(|l| match l.strip_prefix("result.") {
            Some(kv) => parent_keys.contains(&kv.split('=').next().unwrap()),
            None => true,
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(parent_format.matches("result.").count(), 16);
    std::fs::write(&paths[2], parent_format).unwrap();

    let again = run_sweep(&spec, &dir, 2, None, None).unwrap();
    assert_eq!((again.cached, again.computed), (0, 3));
    assert_eq!(sweep_json(&spec, &grid, &again.complete_cells()), json);
    for (p, text) in paths.iter().zip(&good) {
        assert_eq!(&std::fs::read_to_string(p).unwrap(), text, "rewritten");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell that cannot be saved is an error naming its path, not a panic
/// inside a pool worker.
#[test]
fn unsavable_cell_is_an_error() {
    let mut base = RunSpec::new("ssca2", Mode::Htm, 4, 11);
    base.quick = true;
    let spec = SweepSpec {
        name: "unsavable-test".to_string(),
        base,
        axes: vec![Axis::new("mode", &["HTM", "Staggered"])],
    };
    let dir = scratch_dir("unsavable");
    let cells = cell_dir(&dir, &spec.name);
    let key = spec.cells().unwrap()[1].spec.run_key();
    std::fs::create_dir_all(cells.join(format!("{key}.tmp"))).unwrap();

    let err = run_sweep(&spec, &dir, 2, None, None).err().expect("fails");
    let path = cells.join(format!("{key}.cell"));
    assert!(
        err.starts_with(&format!("cannot persist {}: ", path.display())),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

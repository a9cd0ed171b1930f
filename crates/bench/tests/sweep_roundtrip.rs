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
//!    is recomputed.

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
/// parses back, and the parsed spec simulates bit-identically. A default
/// spec's canon omits the new keys entirely, so pre-protocol-matrix run
/// keys — and every sweep-cache cell addressed by them — stay valid.
#[test]
fn fallback_and_capacity_fields_round_trip_through_runs() {
    // Contended enough that the safe lazy-subscription run has commit-time
    // subscription aborts.
    let mut base = RunSpec::new("memcached", Mode::Htm, 8, 11);
    base.quick = true;
    let canon = base.canon();
    assert!(
        !canon.contains("fallback") && !canon.contains("max_read_lines"),
        "defaults must not serialize — old run keys would shift"
    );

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
            // The table's `aborts` counts every cause the run's stats
            // count, commit-time subscription aborts included.
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
            let aborts = agg.aborts();
            assert!(json.contains(&format!("\"aborts\": {aborts},")), "{json}");
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
        axes: vec![Axis::new("mode", &["HTM", "Staggered"])],
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

    let again = run_sweep(&spec, &dir, 2, None, None).unwrap();
    assert_eq!((again.cached, again.computed), (0, 2));
    assert_eq!(sweep_json(&spec, &grid, &again.complete_cells()), json);
    for (p, text) in paths.iter().zip(&good) {
        assert_eq!(&std::fs::read_to_string(p).unwrap(), text, "rewritten");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

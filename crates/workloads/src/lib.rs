//! # workloads — the paper's ten benchmark programs, authored in `tm-ir`
//!
//! | name | source (paper Table 4) | contention source (Table 1) |
//! |---|---|---|
//! | genome | STAMP | fixed-size hash table of segment lists |
//! | intruder | STAMP | shared task queues (enqueue near txn end) |
//! | kmeans | STAMP | cluster-center accumulator arrays |
//! | labyrinth | STAMP | grid cells along routed paths |
//! | ssca2 | STAMP | per-node adjacency arrays (tiny txns) |
//! | vacation | STAMP | search trees (substituted: unbalanced BSTs) |
//! | list-lo | RSTM IntSet | sorted linked list, 90/5/5 mix |
//! | list-hi | RSTM IntSet | sorted linked list, 60/20/20 mix |
//! | tsp | authors' own | priority queue (substituted: binary heap) |
//! | memcached | memcached 1.4.9 | global statistics updated mid-txn |
//!
//! Each workload provides a [`Workload`] implementation: an IR module whose
//! entry function is named `thread_main`, host-side setup of the shared
//! data structures, and a post-run validation of the workload's invariants
//! (the HTM serializability check for that data structure).
//!
//! Structural substitutions versus the original C programs are documented
//! per-module and in `DESIGN.md`; the *contention pattern* each benchmark
//! contributes to the evaluation (Table 1's LA/LP locality classes) is
//! preserved, because that is what the Staggered Transactions policy reacts
//! to.

pub mod genome;
pub mod intruder;
pub mod kmeans;
pub mod labyrinth;
pub mod list;
pub mod memcached;
pub mod runner;
pub mod serve;
pub mod ssca2;
pub mod tsp;
pub mod vacation;

pub use runner::{run_benchmark, BenchResult, PreparedWorkload};

use htm_sim::Machine;
use tm_interp::RunOutcome;
use tm_ir::Module;

/// A benchmark program: IR module + host-side setup + invariants.
pub trait Workload: Sync {
    /// Short name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Build the (uninstrumented) IR module. Must contain a `Normal`
    /// function named `thread_main`; its per-thread arguments come from
    /// [`Workload::setup`].
    fn build_module(&self) -> Module;

    /// Allocate and initialize shared data in `machine` (host-side, zero
    /// simulated cycles); returns `thread_main` argument vectors, one per
    /// thread. Implementations must divide total work across threads so
    /// runs at different thread counts do the same total work (speedup is
    /// measured against the 1-thread run).
    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>>;

    /// Check the workload's serializability invariants after a run.
    /// `thread_args` are the vectors returned by `setup`.
    fn validate(
        &self,
        machine: &Machine,
        thread_args: &[Vec<u64>],
        out: &RunOutcome,
    ) -> Result<(), String>;
}

/// All ten benchmarks with their default (bench-scale) parameters, in the
/// paper's Table 4 order.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(genome::Genome::default()),
        Box::new(intruder::Intruder::default()),
        Box::new(kmeans::Kmeans::default()),
        Box::new(labyrinth::Labyrinth::default()),
        Box::new(ssca2::Ssca2::default()),
        Box::new(vacation::Vacation::default()),
        Box::new(list::ListBench::lo()),
        Box::new(list::ListBench::hi()),
        Box::new(tsp::Tsp::default()),
        Box::new(memcached::Memcached::default()),
    ]
}

/// The ten benchmarks at smoke scale (the harnesses' `--quick` set), in
/// the same order and under the same names as [`all_workloads`].
pub fn quick_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(genome::Genome::tiny()),
        Box::new(intruder::Intruder::tiny()),
        Box::new(kmeans::Kmeans::tiny()),
        Box::new(labyrinth::Labyrinth::tiny()),
        Box::new(ssca2::Ssca2::tiny()),
        Box::new(vacation::Vacation::tiny()),
        Box::new(list::ListBench::lo()),
        Box::new(list::ListBench::hi()),
        Box::new(tsp::Tsp::tiny()),
        Box::new(memcached::Memcached::tiny()),
    ]
}

/// Registry lookup: the workload called `name` (as printed in the paper's
/// tables) at bench scale, or at smoke scale with `quick`. This is how
/// serialized experiment specs resolve their `workload` field back to a
/// runnable program.
pub fn workload_by_name(name: &str, quick: bool) -> Option<Box<dyn Workload>> {
    // Parameterized serving workloads (`serve-flash-i<N>`) are
    // constructed from the name rather than enumerated.
    if name.starts_with("serve-") {
        return serve::Serve::parse_name(name, quick).map(|w| Box::new(w) as Box<dyn Workload>);
    }
    let set = if quick {
        quick_workloads()
    } else {
        all_workloads()
    };
    set.into_iter().find(|w| w.name() == name)
}

/// Every registered workload name, in table order (both scales share the
/// same names).
pub fn workload_names() -> Vec<&'static str> {
    all_workloads().iter().map(|w| w.name()).collect()
}

/// Per-thread statistics slots: each thread reports counters back to the
/// host in its own cache line (8 words), so the reporting itself never
/// contends. Returns the base address; thread `t` owns
/// `[base + t*64, base + t*64 + 64)`.
pub(crate) fn alloc_stat_slots(machine: &Machine, n_threads: usize) -> u64 {
    machine.host_alloc(n_threads as u64 * 8, true)
}

/// Address of thread `t`'s stats slot.
pub(crate) fn stat_slot(base: u64, t: usize) -> u64 {
    base + t as u64 * 64
}

/// Host-side sum of word `off` (0..8) over all threads' slots.
pub(crate) fn sum_slots(machine: &Machine, base: u64, n_threads: usize, off: u64) -> u64 {
    (0..n_threads)
        .map(|t| machine.host_load(stat_slot(base, t) + off * 8))
        .sum()
}

#[cfg(test)]
mod tests {
    /// `UnifiedAnchorTable`'s searches return the first match in `entries`,
    /// so each must have only one: in every table of every workload, PCs
    /// are distinct and every anchor id has exactly one anchor entry.
    #[test]
    fn anchor_tables_have_distinct_pcs_and_one_entry_per_anchor() {
        for w in super::all_workloads() {
            let c = stagger_compiler::compile(&w.build_module());
            assert!(!c.tables.is_empty(), "{}", w.name());
            for (ab, t) in &c.tables {
                let mut pcs: Vec<_> = t.entries.iter().map(|e| e.pc).collect();
                pcs.sort_unstable();
                let n = pcs.len();
                pcs.dedup();
                assert_eq!(pcs.len(), n, "{} block {ab}: a PC repeats", w.name());
                for e in &t.entries {
                    let own = t
                        .entries
                        .iter()
                        .filter(|a| a.is_anchor && a.anchor_id == e.anchor_id);
                    assert_eq!(
                        own.count(),
                        1,
                        "{} block {ab}: anchor {}",
                        w.name(),
                        e.anchor_id
                    );
                }
            }
        }
    }
}

//! One-call benchmark runner: compile, set up, execute, validate.
//!
//! Harnesses that run the same workload in many modes / at many thread
//! counts should compile once via [`PreparedWorkload`] and then call
//! [`PreparedWorkload::run`] per configuration; [`run_benchmark`] remains
//! the convenient one-shot entry point.

use crate::Workload;
use htm_sim::{Machine, MachineConfig, ObsEvent};
use stagger_compiler::{compile, CompileStats, Compiled};
use stagger_core::{Mode, RuntimeConfig};
use std::sync::Arc;
use std::time::Instant;
use tm_interp::{run_workload_prepared, Prepared, RunOutcome, ThreadPlan};

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: &'static str,
    pub mode: Mode,
    pub n_threads: usize,
    pub out: RunOutcome,
    /// Host wall-clock seconds spent simulating this run (setup through
    /// validation) — the simulator's own throughput, not a paper metric.
    pub host_secs: f64,
    /// Per-core observability event streams, taken from the machine when
    /// [`MachineConfig::record_events`] was set (empty otherwise, and
    /// always empty via [`PreparedWorkload::run_on`], where the caller
    /// keeps the machine and its rings). Pure-observer data: latency
    /// derivation over these streams never feeds back into the run.
    pub events: Vec<Vec<ObsEvent>>,
    /// Per core, how many of its oldest events the bounded ring overwrote
    /// ([`Machine::events_dropped`]; filled with `events`). Any nonzero
    /// count means statistics over `events` cover a truncated run.
    pub events_dropped: Vec<u64>,
}

impl BenchResult {
    /// Simulated execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.out.sim.exec_cycles
    }

    /// Dynamic instructions executed across all simulated cores.
    pub fn sim_insts(&self) -> u64 {
        self.out.exec.insts
    }

    /// Simulated instructions per host second — the simulator's throughput
    /// on this run.
    pub fn insts_per_sec(&self) -> f64 {
        if self.host_secs > 0.0 {
            self.sim_insts() as f64 / self.host_secs
        } else {
            0.0
        }
    }

    /// Host nanoseconds per simulated instruction — the inverse of
    /// [`Self::insts_per_sec`], scaled for readability.
    pub fn ns_per_inst(&self) -> f64 {
        let insts = self.sim_insts();
        if insts > 0 {
            self.host_secs * 1e9 / insts as f64
        } else {
            0.0
        }
    }
}

/// A workload compiled and flattened once, reusable (and shareable across
/// harness threads) for any number of runs. Compilation and
/// [`Prepared::build`] are the per-run setup costs that do not depend on
/// mode, thread count, or seed — hoisting them out turns an
/// every-configuration cost into a per-workload one.
pub struct PreparedWorkload<'w> {
    w: &'w dyn Workload,
    compiled: Arc<Compiled>,
    prepared: Arc<Prepared>,
}

impl<'w> PreparedWorkload<'w> {
    /// Compile and flatten `w` once.
    pub fn new(w: &'w dyn Workload) -> PreparedWorkload<'w> {
        let module = w.build_module();
        let compiled = Arc::new(compile(&module));
        let prepared = Arc::new(Prepared::build(&compiled));
        PreparedWorkload {
            w,
            compiled,
            prepared,
        }
    }

    pub fn workload(&self) -> &'w dyn Workload {
        self.w
    }

    pub fn name(&self) -> &'static str {
        self.w.name()
    }

    pub fn compile_stats(&self) -> &CompileStats {
        &self.compiled.stats
    }

    /// The compiled program: module, code layout and unified anchor
    /// tables — what a profiler needs to resolve PC tags back to IR
    /// functions and instructions.
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// Run on `n_threads` simulated cores in `mode` with default machine
    /// and runtime configuration.
    pub fn run(&self, mode: Mode, n_threads: usize, seed: u64) -> BenchResult {
        self.run_cfg(
            seed,
            MachineConfig::cores(n_threads),
            RuntimeConfig::with_mode(mode),
        )
    }

    /// Run with explicit machine and runtime configuration (ablations:
    /// lazy protocol, PC-tag width, lock timeouts, policy thresholds...).
    ///
    /// # Panics
    /// Panics if the workload's post-run validation fails — a validation
    /// failure means the HTM or runtime broke serializability, which is
    /// never acceptable.
    pub fn run_cfg(
        &self,
        seed: u64,
        machine_cfg: MachineConfig,
        rt_cfg: RuntimeConfig,
    ) -> BenchResult {
        let machine = Machine::new(machine_cfg);
        let mut r = self.run_on(&machine, &rt_cfg, seed);
        if machine.config().record_events {
            r.events = machine.take_events();
            r.events_dropped = machine.events_dropped();
        }
        r
    }

    /// Run on a caller-provided, freshly constructed machine. The caller
    /// keeps the machine, so post-run state (e.g.
    /// [`Machine::take_events`]) stays reachable — the scheduler
    /// equivalence tests depend on that. `machine` must not have run a
    /// workload before: [`Workload::setup`] allocates from its heap.
    pub fn run_on(&self, machine: &Machine, rt_cfg: &RuntimeConfig, seed: u64) -> BenchResult {
        let started = Instant::now();
        let mode = rt_cfg.mode;
        let n_threads = machine.config().n_cores;
        let thread_args = self.w.setup(machine, n_threads);
        assert_eq!(thread_args.len(), n_threads);
        let tm = self.compiled.module.expect("thread_main");
        let plans: Vec<ThreadPlan> = thread_args
            .iter()
            .map(|args| ThreadPlan {
                func: tm,
                args: args.clone(),
            })
            .collect();
        let out = run_workload_prepared(
            machine,
            &self.compiled,
            &self.prepared,
            rt_cfg,
            &plans,
            seed,
        );
        if let Err(e) = self.w.validate(machine, &thread_args, &out) {
            panic!(
                "{} [{} x{}]: invariant violated: {e}",
                self.w.name(),
                mode.name(),
                n_threads
            );
        }
        BenchResult {
            name: self.w.name(),
            mode,
            n_threads,
            out,
            host_secs: started.elapsed().as_secs_f64(),
            events: Vec::new(),
            events_dropped: Vec::new(),
        }
    }
}

/// Compile `w`, run it on `n_threads` simulated cores in `mode`, validate
/// the workload invariants, and return all statistics.
///
/// # Panics
/// Panics if the workload's post-run validation fails — a validation
/// failure means the HTM or runtime broke serializability, which is never
/// acceptable.
pub fn run_benchmark(w: &dyn Workload, mode: Mode, n_threads: usize, seed: u64) -> BenchResult {
    PreparedWorkload::new(w).run(mode, n_threads, seed)
}

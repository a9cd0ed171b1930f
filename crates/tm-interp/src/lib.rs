//! # tm-interp — executing instrumented programs on the simulated HTM
//!
//! The "CPU + runtime glue" of the reproduction: an interpreter for
//! `tm-ir` modules that
//!
//! * runs each instruction against the [`htm_sim::Core`] API, charging one
//!   cycle per µ-op plus the memory hierarchy's latencies;
//! * treats a call to an **atomic function** as a hardware transaction,
//!   driving the paper's retry protocol (Section 6): up to `max_retries`
//!   hardware attempts with polite backoff, global-lock subscription
//!   immediately before commit, then **irrevocable mode** under the global
//!   lock;
//! * dispatches [`tm_ir::Inst::AlPoint`] to the Staggered Transactions
//!   runtime ([`stagger_core::ThreadRuntime::alpoint`]), and feeds contention
//!   aborts to the locking policy with the hardware- or software-derived
//!   conflicting-PC information selected by [`stagger_core::Mode`];
//! * collects the dynamic statistics behind Table 3 (µ-ops and anchors per
//!   committed transaction, instrumentation overhead) and Table 4 / Figures
//!   7–8 (commits, aborts, cycles).
//!
//! [`run::run_workload`] is the one-call entry point used by the workloads
//! and the benchmark harnesses.

pub mod exec;
pub mod prepared;
pub mod run;

pub use exec::{ExecStats, Executor};
pub use prepared::Prepared;
pub use run::{run_workload, run_workload_prepared, RunOutcome, ThreadPlan};

//! Shared scaffolding for the exhibit binaries.
//!
//! Every exhibit used to open the same way by copy-paste: build a
//! [`Report`], print a banner with the `--quick` suffix, print a column
//! header and its rule, resolve workload names against the registry (each
//! spelling its own "unknown workload" exit), compile the set through the
//! job pool, and — for the event-recording exhibits — hand-roll a
//! `MachineConfig` that re-applied the common pins. The
//! copies drifted: none of them picked up new common knobs (the
//! `--fallback` policy pin) without editing five binaries.
//!
//! [`Exhibit`] owns that scaffolding once. A new exhibit binary is the
//! interesting part only: construct, `banner`, `header`, resolve/prepare,
//! run through [`Exhibit::report`]'s helpers, `finish`.

use crate::{CommonOpts, Report};
use htm_sim::MachineConfig;
use workloads::{PreparedWorkload, Workload};

/// One exhibit binary's common plumbing: its [`Report`], the parsed
/// common flags, and the banner/header/workload-resolution helpers the
/// bins used to duplicate.
pub struct Exhibit {
    name: String,
    opts: CommonOpts,
    report: Report,
}

impl Exhibit {
    /// `name` is the exhibit stem: the `--json` dump goes to
    /// `results/BENCH_<name>.json`, and resolution errors print as
    /// `<name>: ...`.
    pub fn new(name: &str, opts: &CommonOpts) -> Exhibit {
        Exhibit {
            name: name.to_string(),
            opts: opts.clone(),
            report: Report::new(name, opts),
        }
    }

    /// The common flags this exhibit was invoked with.
    pub fn opts(&self) -> &CommonOpts {
        &self.opts
    }

    /// The exhibit's report; all run/record helpers live there.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Print the exhibit banner, appending " (quick)" under `--quick`.
    pub fn banner(&self, text: &str) {
        println!("{text}{}", if self.opts.quick { " (quick)" } else { "" });
    }

    /// Print a column header followed by its underline rule.
    pub fn header(&self, header: &str) {
        println!("{header}");
        crate::rule(header);
    }

    /// Resolve one workload by name at the exhibit's `--quick` scale, or
    /// exit(2) listing the registry.
    pub fn workload(&self, name: &str) -> Box<dyn Workload> {
        workloads::workload_by_name(name, self.opts.quick).unwrap_or_else(|| {
            eprintln!("{}: unknown workload '{name}'", self.name);
            eprintln!("available: {}", workloads::workload_names().join(" "));
            std::process::exit(2);
        })
    }

    /// Resolve a list of workload names (see [`Exhibit::workload`]).
    pub fn workload_list(&self, names: &[&str]) -> Vec<Box<dyn Workload>> {
        names.iter().map(|n| self.workload(n)).collect()
    }

    /// The full built-in benchmark set at the exhibit's scale.
    pub fn workload_set(&self) -> Vec<Box<dyn Workload>> {
        crate::workload_set(self.opts.quick)
    }

    /// Compile + flatten workloads through the report's job pool, each
    /// exactly once; the result is index-aligned with `set`.
    pub fn prepare<'w>(&self, set: &'w [Box<dyn Workload>]) -> Vec<PreparedWorkload<'w>> {
        self.report.pool(
            set.iter()
                .map(|w| move || PreparedWorkload::new(w.as_ref()))
                .collect(),
        )
    }

    /// An event-recording machine configuration at `cores`, honoring the
    /// common `--fallback` pin — for exhibits that drive `run_cfg`
    /// themselves because they consume the observability event stream.
    pub fn recording_machine(&self, cores: usize) -> MachineConfig {
        let mut cfg = MachineConfig::cores(cores).record_events();
        if let Some(fb) = self.opts.fallback {
            cfg = cfg.fallback(fb);
        }
        cfg
    }

    /// Print the report's end-of-exhibit summary (and the `--json` dump).
    pub fn finish(&self) {
        self.report.finish();
    }
}

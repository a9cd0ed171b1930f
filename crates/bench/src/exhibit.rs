//! The per-invocation harness object every exhibit binary runs through.
//!
//! An [`Exhibit`] holds the exhibit's name and common flags, submits work
//! to the job pool, records every simulator run, and ends with a summary
//! line and, under `--json`, a machine-readable dump to
//! `results/BENCH_<exhibit>.json`. A run is always a [`RunSpec`]:
//! [`Exhibit::spec`] builds one from the common flags (through
//! [`RunSpec::from_opts`], the one place they become a configuration),
//! the binary sets whatever knob its table varies, and [`Exhibit::run`]
//! executes and records it. A binary is then construct, `banner`,
//! `header`, resolve/prepare, run, `finish`.
//!
//! Per-run host wall-clock and simulated instruction throughput are
//! reported; the JSON is written by hand (no external dependencies — the
//! build must work offline) and its schema is flat and stable:
//!
//! ```json
//! {
//!   "exhibit": "paper", "jobs": 4, "threads": 16, "quick": true,
//!   "seed": 2015, "wall_secs": 12.3, "total_sim_insts": 45600000,
//!   "insts_per_sec": 3700000.0,
//!   "runs": [ { "workload": "genome", "mode": "htm", "threads": 16,
//!               "sim_cycles": 1, "sim_insts": 2, "commits": 1, ...,
//!               "gated_ops": 1, ..., "alps_executed": 0,
//!               "elided_ops": 0, "parks": 0,
//!               "sched_calls": 9, "sched_stale": 3,
//!               "events_complete": true, "lat_count": 4, "lat_p50": 100, ...,
//!               "host_secs": 0.5, "insts_per_sec": 4.0,
//!               "ns_per_inst": 250000000.0 }, ... ],
//!   "workers": [ { "worker": 0, "jobs_run": 3, "busy_secs": 1.2,
//!                  "utilization": 0.58 }, ... ]
//! }
//! ```
//!
//! A run's simulated counters are the columns of a sweep table
//! ([`CellMetrics::keys`]): `sim_cycles`, `sim_insts`, then every counter
//! of the aggregate `CoreStats` and of `RtStats`, by field name. Among
//! them, `gated_ops` counts the shared-memory operations simulated through
//! the scheduler gate; `elided_ops` of them were fast-forwarded by `parks`
//! parked spin-waits instead of being executed one by one. `ns_per_inst` is
//! host nanoseconds per simulated instruction — all scheduler-overhead
//! observability, not paper metrics. `sched_calls`/`sched_stale` count the
//! event loop's `schedule()` calls and tree key updates, and `workers`
//! reports per-worker utilization of the harness job pool (busy_secs over
//! wall time) for work routed through [`Exhibit::pool`].

use crate::jobs::{run_jobs_timed, WorkerUtil};
use crate::sweep::{CellMetrics, GridCell};
use crate::{json_str, CommonOpts, RunSpec};
use htm_sim::{histogram_of, request_latencies, LatencySummary};
use stagger_core::Mode;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;
use workloads::{BenchResult, PreparedWorkload, Workload};

/// One simulator run, as the harness saw it.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: &'static str,
    pub mode: &'static str,
    pub threads: usize,
    /// The run's simulated counters, the columns of a sweep table.
    pub metrics: CellMetrics,
    /// Gated ops accounted by fast-forwarding a parked spin-wait, and the
    /// number of such parks (host-side, never simulated quantities).
    pub elided_ops: u64,
    pub parks: u64,
    /// Indexed-scheduler overhead: `schedule()` calls and tree key
    /// updates (host-side observability, not simulated quantities).
    pub sched_calls: u64,
    pub sched_stale: u64,
    pub host_secs: f64,
    /// Latency percentile digest, present when the run recorded
    /// observability events (simulated cycles; request-level for the
    /// serving exhibits, transaction-level otherwise).
    pub latency: Option<LatencySummary>,
    /// Events the bounded per-core rings overwrote, all cores together:
    /// nonzero means `latency` is over a truncated stream.
    pub events_dropped: u64,
}

impl RunRecord {
    pub fn insts_per_sec(&self) -> f64 {
        if self.host_secs > 0.0 {
            self.metrics.sim_insts as f64 / self.host_secs
        } else {
            0.0
        }
    }

    /// Host nanoseconds spent per simulated instruction.
    pub fn ns_per_inst(&self) -> f64 {
        if self.metrics.sim_insts > 0 {
            self.host_secs * 1e9 / self.metrics.sim_insts as f64
        } else {
            0.0
        }
    }
}

/// One exhibit invocation: its name, common flags, and every run it made.
/// Shareable across harness workers (interior mutability).
pub struct Exhibit {
    name: String,
    opts: CommonOpts,
    started: Instant,
    records: Mutex<Vec<RunRecord>>,
    /// Job-pool utilization, merged by worker index across every
    /// [`Exhibit::pool`] invocation.
    workers: Mutex<Vec<WorkerUtil>>,
}

impl Exhibit {
    /// `name` is the exhibit stem: the `--json` dump goes to
    /// `results/BENCH_<name>.json`, and resolution errors print as
    /// `<name>: ...`.
    pub fn new(name: &str, opts: &CommonOpts) -> Exhibit {
        Exhibit {
            name: name.to_string(),
            opts: opts.clone(),
            started: Instant::now(),
            records: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// The common flags this exhibit was invoked with.
    pub fn opts(&self) -> &CommonOpts {
        &self.opts
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

    /// The full built-in benchmark set at the exhibit's scale.
    pub fn workload_set(&self) -> Vec<Box<dyn Workload>> {
        crate::workload_set(self.opts.quick)
    }

    /// Compile + flatten workloads through the job pool, each exactly
    /// once; the result is index-aligned with `set`.
    pub fn prepare<'w>(&self, set: &'w [Box<dyn Workload>]) -> Vec<PreparedWorkload<'w>> {
        self.pool(
            set.iter()
                .map(|w| move || PreparedWorkload::new(w.as_ref()))
                .collect(),
        )
    }

    /// Run `jobs` through the harness pool at this exhibit's `--jobs`
    /// level, folding per-worker utilization into the `workers` section
    /// of the JSON dump. Results come back in submission order, like
    /// [`crate::run_jobs`].
    pub fn pool<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let (out, utils) = run_jobs_timed(jobs, self.opts.jobs);
        let mut acc = self.workers.lock().unwrap();
        if acc.len() < utils.len() {
            acc.resize(utils.len(), WorkerUtil::default());
        }
        for (a, u) in acc.iter_mut().zip(&utils) {
            a.jobs_run += u.jobs_run;
            a.busy_secs += u.busy_secs;
        }
        drop(acc);
        out
    }

    /// The spec this exhibit runs `p` with at `threads` in `mode`: the
    /// common flags (`--seed`, `--quick`, `--fallback`) and default knobs
    /// otherwise. Set a field on it to vary a knob.
    pub fn spec(&self, p: &PreparedWorkload, mode: Mode, threads: usize) -> RunSpec {
        let mut spec = RunSpec::from_opts(&self.opts, p.name(), mode);
        spec.threads = threads;
        spec
    }

    /// Run `spec` against `p` (the workload it names) and record it.
    pub fn run(&self, p: &PreparedWorkload, spec: &RunSpec) -> BenchResult {
        let r = spec.run(p);
        self.record(&r);
        r
    }

    /// Run and record every cell of a sweep grid through the pool, each
    /// distinct workload compiled once; results are in grid order.
    pub fn run_grid(&self, grid: &[GridCell]) -> Vec<BenchResult> {
        let mut names: Vec<&str> = grid.iter().map(|c| c.spec.workload.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let set: Vec<_> = names.iter().map(|n| self.workload(n)).collect();
        let prepared = self.prepare(&set);
        self.pool(
            grid.iter()
                .map(|cell| {
                    let i = names.binary_search(&cell.spec.workload.as_str());
                    let p = &prepared[i.expect("prepared above")];
                    move || self.run(p, &cell.spec)
                })
                .collect(),
        )
    }

    /// Record a finished run. Runs that carried observability events get
    /// a transaction-level latency digest; exhibits that know request
    /// arrivals (serve) use [`Exhibit::record_with_latency`] instead.
    pub fn record(&self, r: &BenchResult) {
        let latency = (!r.events.is_empty())
            .then(|| histogram_of(&request_latencies(&r.events, &[])).summary());
        self.record_with(r, latency);
    }

    /// Record a finished run with an exhibit-supplied latency digest
    /// (e.g. request-level, derived against an arrival schedule).
    pub fn record_with_latency(&self, r: &BenchResult, latency: LatencySummary) {
        self.record_with(r, Some(latency));
    }

    fn record_with(&self, r: &BenchResult, latency: Option<LatencySummary>) {
        self.records.lock().unwrap().push(RunRecord {
            workload: r.name,
            mode: r.mode.name(),
            threads: r.n_threads,
            metrics: CellMetrics::from_result(r),
            elided_ops: r.out.sched.elided_ops,
            parks: r.out.sched.parks,
            sched_calls: r.out.sched.schedule_calls,
            sched_stale: r.out.sched.stale_refreshes,
            host_secs: r.host_secs,
            latency,
            events_dropped: r.events_dropped.iter().sum(),
        });
    }

    /// Print `WARNING: core N dropped K events` for every core of `r` whose
    /// event ring wrapped, so a table row computed over a truncated stream
    /// is never shown as if complete. Call where the row is printed.
    pub fn warn_dropped_events(r: &BenchResult) {
        for (core, &k) in r.events_dropped.iter().enumerate() {
            if k > 0 {
                println!("WARNING: core {core} dropped {k} events");
            }
        }
    }

    /// Render the machine-readable report. Runs are sorted by
    /// (workload, mode, threads) so the dump is deterministic at any
    /// `--jobs` level.
    pub fn to_json(&self) -> String {
        let mut recs = self.records.lock().unwrap().clone();
        recs.sort_by(|a, b| (a.workload, a.mode, a.threads).cmp(&(b.workload, b.mode, b.threads)));
        let wall = self.started.elapsed().as_secs_f64();
        let total_insts: u64 = recs.iter().map(|r| r.metrics.sim_insts).sum();
        let ips = if wall > 0.0 {
            total_insts as f64 / wall
        } else {
            0.0
        };
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"exhibit\": {},\n", json_str(&self.name)));
        s.push_str(&format!("  \"jobs\": {},\n", self.opts.jobs));
        s.push_str(&format!("  \"threads\": {},\n", self.opts.threads));
        s.push_str(&format!("  \"quick\": {},\n", self.opts.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!("  \"wall_secs\": {wall:.6},\n"));
        s.push_str(&format!("  \"total_sim_insts\": {total_insts},\n"));
        s.push_str(&format!("  \"insts_per_sec\": {ips:.1},\n"));
        s.push_str("  \"runs\": [\n");
        for (i, r) in recs.iter().enumerate() {
            // Percentile digest of the run's latency distribution, when
            // the run recorded observability events, flagged incomplete
            // if a ring wrapped.
            let lat = match &r.latency {
                Some(l) => format!(
                    "\"events_complete\": {}, \
                     \"lat_count\": {}, \"lat_p50\": {}, \"lat_p90\": {}, \
                     \"lat_p99\": {}, \"lat_p999\": {}, \"lat_max\": {}, \
                     \"lat_mean\": {}, ",
                    r.events_dropped == 0,
                    l.count,
                    l.p50,
                    l.p90,
                    l.p99,
                    l.p999,
                    l.max,
                    l.mean(),
                ),
                None => String::new(),
            };
            let counters: String = r
                .metrics
                .counters()
                .map(|(k, v)| format!("{}: {v}, ", json_str(k)))
                .collect();
            s.push_str(&format!(
                "    {{ \"workload\": {}, \"mode\": {}, \"threads\": {}, \
                 {counters}\"elided_ops\": {}, \"parks\": {}, \
                 \"sched_calls\": {}, \"sched_stale\": {}, {lat}\
                 \"host_secs\": {:.6}, \"insts_per_sec\": {:.1}, \
                 \"ns_per_inst\": {:.2} }}{}\n",
                json_str(r.workload),
                json_str(r.mode),
                r.threads,
                r.elided_ops,
                r.parks,
                r.sched_calls,
                r.sched_stale,
                r.host_secs,
                r.insts_per_sec(),
                r.ns_per_inst(),
                if i + 1 < recs.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        let workers = self.workers.lock().unwrap().clone();
        s.push_str("  \"workers\": [\n");
        for (i, u) in workers.iter().enumerate() {
            let utilization = if wall > 0.0 { u.busy_secs / wall } else { 0.0 };
            s.push_str(&format!(
                "    {{ \"worker\": {i}, \"jobs_run\": {}, \"busy_secs\": {:.6}, \
                 \"utilization\": {:.4} }}{}\n",
                u.jobs_run,
                u.busy_secs,
                utilization,
                if i + 1 < workers.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Print the throughput summary line; with `--json`, also dump
    /// `results/BENCH_<exhibit>.json`.
    pub fn finish(&self) {
        let recs = self.records.lock().unwrap();
        let n = recs.len();
        let total_insts: u64 = recs.iter().map(|r| r.metrics.sim_insts).sum();
        // `.max(0.0)` normalizes the empty-sum -0.0 so a zero-run report
        // prints "0.00" rather than "-0.00".
        let run_secs: f64 = recs.iter().map(|r| r.host_secs).sum::<f64>().max(0.0);
        let sched_calls: u64 = recs.iter().map(|r| r.sched_calls).sum();
        let sched_stale: u64 = recs.iter().map(|r| r.sched_stale).sum();
        let gated: u64 = recs.iter().map(|r| r.metrics.core.gated_ops).sum();
        let elided: u64 = recs.iter().map(|r| r.elided_ops).sum();
        let parks: u64 = recs.iter().map(|r| r.parks).sum();
        drop(recs);
        let wall = self.started.elapsed().as_secs_f64();
        let ips = if wall > 0.0 {
            total_insts as f64 / wall
        } else {
            0.0
        };
        println!();
        println!(
            "harness: {n} runs in {wall:.2} s wall ({run_secs:.2} s of simulation, \
             jobs={}), {} sim insts, {}/s",
            self.opts.jobs,
            human(total_insts as f64),
            human(ips)
        );
        if sched_calls > 0 {
            println!(
                "harness: sched {} schedule() calls, {} key updates; {} gated ops, \
                 {} of them elided by {} parks",
                human(sched_calls as f64),
                human(sched_stale as f64),
                human(gated as f64),
                human(elided as f64),
                human(parks as f64)
            );
        }
        if self.opts.json {
            match self.write_json() {
                Ok(path) => println!("harness: wrote {}", path.display()),
                Err(e) => eprintln!("harness: could not write JSON report: {e}"),
            }
        }
    }

    fn write_json(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// 12345678 -> "12.3M" — for the human summary line only.
fn human(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::{FallbackPolicy, MachineConfig};
    use stagger_core::RuntimeConfig;

    fn counters(sim_cycles: u64, sim_insts: u64, gated_ops: u64) -> CellMetrics {
        let mut m = CellMetrics {
            sim_cycles,
            sim_insts,
            ..Default::default()
        };
        m.core.gated_ops = gated_ops;
        m
    }

    #[test]
    fn json_escapes_and_sorts() {
        let opts = CommonOpts::default_for_tests();
        let ex = Exhibit::new("unit\"test", &opts);
        ex.records.lock().unwrap().push(RunRecord {
            workload: "zeta",
            mode: "htm",
            threads: 4,
            metrics: counters(10, 20, 7),
            elided_ops: 5,
            parks: 2,
            sched_calls: 9,
            sched_stale: 3,
            host_secs: 2.0,
            latency: Some(LatencySummary {
                count: 4,
                p50: 100,
                p90: 200,
                p99: 300,
                p999: 300,
                max: 310,
                total: 800,
            }),
            events_dropped: 3,
        });
        ex.records.lock().unwrap().push(RunRecord {
            workload: "alpha",
            mode: "htm",
            threads: 4,
            metrics: counters(1, 2, 1),
            elided_ops: 0,
            parks: 0,
            sched_calls: 0,
            sched_stale: 0,
            host_secs: 0.5,
            latency: None,
            events_dropped: 0,
        });
        let j = ex.to_json();
        assert!(j.contains("\"exhibit\": \"unit\\\"test\""));
        let a = j.find("alpha").unwrap();
        let z = j.find("zeta").unwrap();
        assert!(a < z, "runs sorted by workload name");
        assert!(j.contains("\"total_sim_insts\": 22"));
        // insts_per_sec per run: 20 / 2.0 = 10.0
        assert!(j.contains("\"insts_per_sec\": 10.0"));
        assert!(j.contains("\"gated_ops\": 7"));
        assert!(j.contains("\"elided_ops\": 5"));
        assert!(j.contains("\"parks\": 2"));
        assert!(j.contains("\"sched_calls\": 9"));
        assert!(j.contains("\"sched_stale\": 3"));
        // The latency digest appears only on the run that carried one.
        assert!(j.contains("\"lat_p999\": 300"));
        assert!(j.contains("\"lat_mean\": 200"));
        assert_eq!(j.matches("\"lat_count\"").count(), 1);
        // ...flagged as computed over a truncated event stream.
        assert_eq!(j.matches("\"events_complete\"").count(), 1);
        assert!(j.contains("\"events_complete\": false"));
        // ns_per_inst for zeta: 2.0 s * 1e9 / 20 = 1e8
        assert!(j.contains("\"ns_per_inst\": 100000000.00"));
        assert!(j.contains("\"workers\": ["));
    }

    #[test]
    fn pool_folds_worker_utilization() {
        let mut opts = CommonOpts::default_for_tests();
        opts.jobs = 2;
        let ex = Exhibit::new("pool", &opts);
        let out = ex.pool((0..6u32).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
        // A second pool merges into the same worker slots.
        let _ = ex.pool((0..4u32).map(|i| move || i).collect::<Vec<_>>());
        let workers = ex.workers.lock().unwrap();
        assert!(!workers.is_empty() && workers.len() <= 2);
        assert_eq!(workers.iter().map(|u| u.jobs_run).sum::<usize>(), 10);
    }

    /// `--threads`, `--seed` and `--fallback` reach the configuration an
    /// exhibit runs with; without `--fallback` it is exactly the default
    /// machine at `threads` cores and the default runtime in `mode`.
    #[test]
    fn spec_carries_the_common_flags() {
        let w = workloads::list::ListBench::tiny(60, 20);
        let p = PreparedWorkload::new(&w);
        let mut opts = CommonOpts::default_for_tests();
        opts.threads = 8;
        opts.seed = 7;
        let spec = Exhibit::new("t", &opts).spec(&p, Mode::Staggered, opts.threads);
        assert_eq!(spec.seed, 7);
        assert_eq!(
            spec.machine_config().to_kv(),
            MachineConfig::cores(8).to_kv()
        );
        assert_eq!(
            spec.runtime_config().to_kv(),
            RuntimeConfig::with_mode(Mode::Staggered).to_kv()
        );

        opts.fallback = Some(FallbackPolicy::HybridStm);
        let spec = Exhibit::new("t", &opts).spec(&p, Mode::Htm, 4);
        let m = spec.machine_config();
        assert_eq!((m.n_cores, m.fallback), (4, FallbackPolicy::HybridStm));
        assert_eq!(spec.runtime_config().mode, Mode::Htm);
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn human_scales() {
        assert_eq!(human(950.0), "950");
        assert_eq!(human(12_345.0), "12.3k");
        assert_eq!(human(12_345_678.0), "12.35M");
        assert_eq!(human(2.5e9), "2.50G");
    }
}

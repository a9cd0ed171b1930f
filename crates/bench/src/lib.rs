//! # stagger-bench — harnesses regenerating every table and figure
//!
//! The exhibit binaries:
//!
//! | binary | prints |
//! |---|---|
//! | `paper` | the paper's evaluation (Section 6): Tables 1–4 and Figures 7 and 8 from one run matrix |
//! | `ablations` | protocol, PC-tag width, lock timeout and thread-scaling ablations, each under the common flags |
//! | `protocols` | protocol matrix — fallback policy × bounded-set HTM across the suite (the `protocols` sweep's grid) |
//! | `scaling` | list-hi and memcached from 16 to 256 simulated cores (the `scaling` sweep's grid) |
//! | `serve` | open-loop serving scenario: request-latency percentiles against a p99 SLO |
//! | `profile` | conflict attribution for one workload from the observability stream |
//! | `sweep` | declarative ablation sweeps over [`RunSpec`] grids ([`sweep::builtin_sweep`]) |
//!
//! Run with `cargo run -p stagger-bench --release --bin <name>`. Common
//! options (see [`CommonOpts`]): `--threads N`, `--quick`, `--seed N`,
//! `--jobs N`, `--json`, `--fallback F`; binaries with extra flags
//! (profile, scaling, serve, sweep) extend the set via
//! [`CommonOpts::parse_with`], so each `--help` lists exactly the flags
//! that binary understands. Every exhibit is an [`Exhibit`] and every
//! run it makes is a [`RunSpec`] built from the common flags: it compiles
//! each workload once ([`workloads::PreparedWorkload`]) and submits its
//! simulator runs to a parallel job runner ([`jobs::run_jobs`]); results
//! and output order are deterministic at any `--jobs` level because each
//! run is an independent deterministic simulation. Absolute numbers
//! differ from the paper's MARSSx86 testbed; the *shape* — who wins, by
//! roughly what factor — is the reproduction target, and `paper` prints
//! the paper's numbers alongside for comparison (see `EXPERIMENTS.md`).
//!
//! Microbenches (`cargo bench`) cover the mechanism costs the paper argues
//! are negligible: the inactive-ALPoint fast path, policy activation,
//! advisory-lock acquire/release, anchor-table lookups, and compile-pass
//! time.

use htm_sim::MachineConfig;
use workloads::Workload;

pub mod digest;
pub mod exhibit;
pub mod jobs;
pub mod paper;
pub mod profiling;
pub mod sweep;

pub use digest::run_digest;
pub use exhibit::Exhibit;
pub use jobs::run_jobs;
pub use sweep::RunSpec;

const COMMON_USAGE: &str = "\
common options:
  --threads N      simulated cores per run (default 16, as in the paper)
  --quick          scaled-down workloads for smoke runs
  --seed N         base workload seed (default 2015)
  --jobs N         harness worker threads; simulator runs execute in parallel
                   but results and output order stay deterministic
                   (default: available CPUs)
  --json           also dump per-run throughput to results/BENCH_<exhibit>.json
  --fallback F     exhausted-retry fallback policy: irrevocable (default),
                   hybrid-stm, lazy-subscription (unsafe; reproduction of the
                   documented torn-commit window), or lazy-subscription-safe
                   (hardware commit-time lock validation)
  --help           show this message";

const COMMON_USAGE_LINE: &str = "[--threads N] [--quick] [--seed N] [--jobs N] [--json] \
     [--fallback F]";

/// Cursor over `argv` shared by the common-flag parser and each binary's
/// extra flags. Extra-flag closures pull values through [`Args::value`] /
/// [`Args::parsed`] and report errors through [`Args::fail`], so every
/// exhibit gets uniform usage/exit(2) behavior.
pub struct Args {
    argv: Vec<String>,
    i: usize,
    program: String,
    usage_line: String,
    usage_body: String,
}

impl Args {
    fn new(extra_usage_line: &str, extra_usage: &str) -> Args {
        let argv: Vec<String> = std::env::args().collect();
        let program = argv
            .first()
            .map(|p| {
                p.rsplit(['/', '\\'])
                    .next()
                    .unwrap_or("exhibit")
                    .to_string()
            })
            .unwrap_or_else(|| "exhibit".to_string());
        let usage_line = if extra_usage_line.is_empty() {
            COMMON_USAGE_LINE.to_string()
        } else {
            format!("{COMMON_USAGE_LINE} {extra_usage_line}")
        };
        let usage_body = if extra_usage.is_empty() {
            COMMON_USAGE.to_string()
        } else {
            format!("{COMMON_USAGE}\n{extra_usage}")
        };
        Args {
            argv,
            i: 1,
            program,
            usage_line,
            usage_body,
        }
    }

    /// Print `msg` plus the full usage text and exit with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.program);
        eprintln!("usage: {} {}", self.program, self.usage_line);
        eprintln!("{}", self.usage_body);
        std::process::exit(2);
    }

    /// Consume and return the value of flag `name`, failing if absent.
    pub fn value(&mut self, name: &str) -> String {
        self.i += 1;
        match self.argv.get(self.i) {
            Some(v) => v.clone(),
            None => self.fail(&format!("{name} requires a value")),
        }
    }

    /// Consume and parse the value of flag `name`, failing on a
    /// missing or unparsable value.
    pub fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> T {
        let v = self.value(name);
        v.parse()
            .unwrap_or_else(|_| self.fail(&format!("invalid {name} value '{v}'")))
    }

    /// Peek the flag at the cursor; the parse loop advances the cursor
    /// after the flag (and any value consumed through [`Args::value`]) is
    /// processed.
    fn next_flag(&self) -> Option<String> {
        self.argv.get(self.i).cloned()
    }
}

/// The flags shared by every exhibit binary. Per-binary option sets (e.g.
/// the profiler's `--workload/--mode/--trace-out` or scaling's `--cores`)
/// embed a `CommonOpts` and add their own flags via
/// [`CommonOpts::parse_with`], so `--help` of each binary lists only the
/// flags it actually understands.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Simulated cores per run.
    pub threads: usize,
    /// Scaled-down workloads for smoke runs.
    pub quick: bool,
    /// Base workload seed.
    pub seed: u64,
    /// Harness worker threads for [`run_jobs`].
    pub jobs: usize,
    /// Dump `results/BENCH_<exhibit>.json` at the end of the run.
    pub json: bool,
    /// Fallback-policy pin (`--fallback`). `None` keeps the machine
    /// default (`irrevocable`). A simulated knob: it enters the experiment
    /// spec and its run keys.
    pub fallback: Option<htm_sim::FallbackPolicy>,
}

impl CommonOpts {
    fn defaults() -> CommonOpts {
        CommonOpts {
            threads: 16,
            quick: false,
            seed: 2015,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            json: false,
            fallback: None,
        }
    }

    #[cfg(test)]
    pub(crate) fn default_for_tests() -> CommonOpts {
        CommonOpts::defaults()
    }

    /// Parse the common flags from `std::env::args`. Prints usage and
    /// exits with status 2 on an unknown flag or a missing/invalid value.
    pub fn from_args() -> CommonOpts {
        Self::parse_with("", "", |_, _| false)
    }

    /// Parse the common flags plus a binary's own: `extra` is called for
    /// every flag the common core does not recognize and returns whether
    /// it consumed the flag (pulling any value through the [`Args`]).
    /// `extra_usage_line` / `extra_usage` extend the usage text.
    pub fn parse_with(
        extra_usage_line: &str,
        extra_usage: &str,
        mut extra: impl FnMut(&mut Args, &str) -> bool,
    ) -> CommonOpts {
        let mut a = Args::new(extra_usage_line, extra_usage);
        let mut o = CommonOpts::defaults();
        while let Some(flag) = a.next_flag() {
            match flag.as_str() {
                "--threads" => o.threads = a.parsed("--threads"),
                "--seed" => o.seed = a.parsed("--seed"),
                "--jobs" => o.jobs = a.parsed("--jobs"),
                "--quick" => o.quick = true,
                "--json" => o.json = true,
                "--fallback" => {
                    let v = a.value("--fallback");
                    o.fallback = Some(
                        htm_sim::FallbackPolicy::parse(&v)
                            .unwrap_or_else(|| a.fail(&format!("invalid --fallback value '{v}'"))),
                    );
                }
                "--help" | "-h" => {
                    println!("usage: {} {}", a.program, a.usage_line);
                    println!("{}", a.usage_body);
                    std::process::exit(0);
                }
                other => {
                    if !extra(&mut a, other) {
                        a.fail(&format!("unknown option '{other}'"));
                    }
                }
            }
            a.i += 1;
        }
        if !MachineConfig::CORES.contains(&o.threads) {
            a.fail(&format!(
                "--threads must be in {:?}, got {}",
                MachineConfig::CORES,
                o.threads
            ));
        }
        if o.jobs == 0 {
            a.fail("--jobs must be at least 1");
        }
        o
    }
}

/// The benchmark set, optionally scaled down for quick runs (delegates to
/// the workload registry).
pub fn workload_set(quick: bool) -> Vec<Box<dyn Workload>> {
    if quick {
        workloads::quick_workloads()
    } else {
        workloads::all_workloads()
    }
}

/// Classify a locality share into the paper's Y/N.
pub fn yn(share: f64) -> &'static str {
    if share >= 0.5 {
        "Y"
    } else {
        "N"
    }
}

/// Classify aborts/commit into the paper's contention classes.
pub fn contention_class(abts_per_commit: f64) -> &'static str {
    if abts_per_commit < 0.3 {
        "low"
    } else if abts_per_commit < 2.0 {
        "med"
    } else {
        "high"
    }
}

/// Harmonic mean of a slice of positive ratios.
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// Print a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// JSON string literal with minimal escaping (names here are ASCII).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stagger_core::Mode;
    use workloads::PreparedWorkload;

    #[test]
    fn harmonic_mean_basics() {
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        // HM is dominated by the smaller value.
        let hm = harmonic_mean(&[1.0, 4.0]);
        assert!(hm > 1.0 && hm < 2.5);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(contention_class(0.02), "low");
        assert_eq!(contention_class(1.1), "med");
        assert_eq!(contention_class(4.8), "high");
        assert_eq!(yn(0.8), "Y");
        assert_eq!(yn(0.2), "N");
    }

    #[test]
    fn quick_set_has_all_ten() {
        assert_eq!(workload_set(true).len(), 10);
        assert_eq!(workload_set(false).len(), 10);
    }

    /// The harness invariant the parallel runner must preserve: simulated
    /// results (cycles, instructions, commits) are bit-identical whether
    /// runs execute sequentially or on worker threads.
    #[test]
    fn parallel_harness_matches_sequential_results() {
        let w = workloads::ssca2::Ssca2 {
            n_nodes: 64,
            max_degree: 7,
            total_ops: 400,
        };
        let p = PreparedWorkload::new(&w);
        let cases: Vec<(Mode, usize)> = vec![
            (Mode::Htm, 1),
            (Mode::Htm, 4),
            (Mode::Staggered, 4),
            (Mode::AddrOnly, 2),
        ];
        let sequential: Vec<(u64, u64, u64)> = cases
            .iter()
            .map(|&(m, t)| {
                let r = p.run(m, t, 7);
                (r.cycles(), r.sim_insts(), r.out.exec.committed_txns)
            })
            .collect();
        let parallel = run_jobs(
            cases
                .iter()
                .map(|&(m, t)| {
                    let p = &p;
                    move || {
                        let r = p.run(m, t, 7);
                        (r.cycles(), r.sim_insts(), r.out.exec.committed_txns)
                    }
                })
                .collect(),
            4,
        );
        assert_eq!(sequential, parallel);
    }

    /// Same seed, same prepared workload => identical runs (compile-once
    /// caching must not perturb determinism).
    #[test]
    fn prepared_runs_are_deterministic() {
        let w = workloads::list::ListBench::tiny(60, 20);
        let p = PreparedWorkload::new(&w);
        let a = p.run(Mode::Staggered, 4, 11);
        let b = p.run(Mode::Staggered, 4, 11);
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.sim_insts(), b.sim_insts());
        assert_eq!(
            a.out.sim.aggregate().conflict_aborts,
            b.out.sim.aggregate().conflict_aborts
        );
    }
}

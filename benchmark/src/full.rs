//! The full protocol behind a bare `benchmark/run.sh`: every workload,
//! several rounds, one fresh child process per (workload, round).
//!
//! It is the driver's own acceptance protocol, runnable by hand: round `r`
//! runs every workload once with `--seed` + r - 1, and each end-to-end
//! metric is reported as the median over rounds with its quartiles and
//! their distance as a share of the median — the spread the driver bounds.
//! Rounds go round-robin across workloads (round 1 of every workload, then
//! round 2), so a slow spell of the host lands on one round of each
//! workload instead of on every round of one. A child per run keeps
//! `peak_rss_mb` per workload and stops allocator state carrying over.
//!
//! With `--sets 2` every run is made twice back to back (A1 B1 A2 B2 ...)
//! and the two sets must agree: that is `repeat.sh`, the A/A check of the
//! benchmark itself.

use crate::cells::WORKLOADS;
use crate::json::{self, Value};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER, SIM_REPETITIONS};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

#[derive(Debug, Clone)]
pub struct FullArgs {
    pub seed: u64,
    pub rounds: usize,
    /// `--seconds` handed to each child.
    pub seconds: f64,
    /// Restrict to one workload.
    pub workload: Option<String>,
    /// Finish with one traced run per workload.
    pub trace: bool,
    /// 1, or 2 for the interleaved A/A comparison.
    pub sets: usize,
}

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// One digest per repetition, in order.
    sim_digests: Vec<String>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child run exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("child run printed nothing")?;
    let result = json::parse(last)?;
    let field = |key: &str| result.get(key).ok_or(format!("result line lacks '{key}'"));
    let count = |key: &str| Ok::<u64, String>(field(key)?.as_f64().unwrap_or(0.0) as u64);
    let metrics = match field("metrics")? {
        Value::Obj(fields) => fields
            .iter()
            .map(|(name, m)| {
                let v = m.get("value").and_then(Value::as_f64);
                Ok((
                    name.clone(),
                    v.ok_or(format!("metric {name} has no value"))?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("'metrics' is not an object".to_string()),
    };
    let sim_digests = text
        .lines()
        .filter(|l| l.starts_with("run "))
        .flat_map(|l| l.split_whitespace())
        .find_map(|w| w.strip_prefix("sim_digests="))
        .ok_or("child run printed no sim_digests")?
        .split(',')
        .map(str::to_string)
        .collect();
    Ok(ChildRun {
        correct: field("correct")? == &Value::Bool(true),
        attempted: count("attempted")?,
        failed: count("failed")?,
        sim_digests,
        metrics,
        notes: text
            .lines()
            .filter_map(|l| l.strip_prefix("note "))
            .map(str::to_string)
            .collect(),
    })
}

/// Every round of one workload in one set.
#[derive(Default)]
struct Series {
    values: BTreeMap<String, Vec<f64>>,
    /// Per round, the run's per-repetition digests.
    digests: Vec<Vec<String>>,
    attempted: u64,
    failed: u64,
    incorrect_runs: usize,
    /// The first round's notes (the `--seed` round).
    notes: Vec<String>,
}

impl Series {
    fn absorb(&mut self, run: ChildRun) {
        for (name, v) in run.metrics {
            self.values.entry(name).or_default().push(v);
        }
        if self.digests.is_empty() {
            self.notes = run.notes;
        }
        self.digests.push(run.sim_digests);
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.incorrect_runs += usize::from(!run.correct);
    }
}

/// Two runs of one seed simulated the same thing as far as both went.
fn same_simulation(a: &[String], b: &[String]) -> bool {
    a.iter().zip(b).all(|(x, y)| x == y)
}

const SET_NAMES: [&str; 2] = ["A", "B"];

/// Runs the protocol, prints the report, and says whether everything was
/// correct (and, with two sets, whether they agree).
pub fn full(args: &FullArgs) -> Result<bool, String> {
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    if workloads.is_empty() {
        return Err(format!(
            "unknown workload '{}'",
            args.workload.as_deref().unwrap_or("")
        ));
    }
    let mut sets: Vec<BTreeMap<&str, Series>> = (0..args.sets).map(|_| BTreeMap::new()).collect();
    for round in 0..args.rounds {
        for &w in &workloads {
            for (set, name) in sets.iter_mut().zip(SET_NAMES) {
                let run = run_child(w, args.seed + round as u64, args.seconds, false)?;
                eprintln!(
                    "round {}/{} {w} {name}: {} cells, {} failed",
                    round + 1,
                    args.rounds,
                    run.attempted,
                    run.failed
                );
                set.entry(w).or_default().absorb(run);
            }
        }
    }

    let mut ok = true;
    for &w in &workloads {
        for (set, name) in sets.iter().zip(SET_NAMES) {
            let s = &set[w];
            println!(
                "workload {w} set {name}: seeds {}..={} cells {} cells_failed {} first sim_digests[seed {}] {}",
                args.seed,
                args.seed + args.rounds as u64 - 1,
                s.attempted,
                s.failed,
                args.seed,
                s.digests[0][..s.digests[0].len().min(SIM_REPETITIONS)].join(",")
            );
            if s.failed > 0 || s.incorrect_runs > 0 {
                println!(
                    "  FAILED: {} cells failed, {} runs incorrect",
                    s.failed, s.incorrect_runs
                );
                ok = false;
            }
            for m in END_TO_END.iter().filter(|m| m.home.is_none_or(|h| h == w)) {
                let v = &s.values[m.name];
                let (q1, med, q3) = quartiles(v);
                println!(
                    "  {:<20} {med:>14.6} {:<10} q1 {q1:.6} q3 {q3:.6} n {} spread {:.2}% (bound {}%)",
                    m.name,
                    m.unit,
                    v.len(),
                    (q3 - q1) / med * 100.0,
                    m.bound * 100.0
                );
            }
            for note in &s.notes {
                println!("  {note}");
            }
        }
        if args.sets > 1 {
            ok &= sets_agree(w, &sets[0][w], &sets[1][w]);
        }
    }

    if args.trace {
        for &w in &workloads {
            let run = run_child(w, args.seed, args.seconds, true)?;
            println!(
                "workload {w} traced: seed {} cells {} cells_failed {}",
                args.seed, run.attempted, run.failed
            );
            if !run.correct || !same_simulation(&run.sim_digests, &sets[0][w].digests[0]) {
                println!(
                    "  FAILED: traced run incorrect, or it and the untraced run of \
                     this seed simulated different things"
                );
                ok = false;
            }
            for ((name, unit, _), (got, value)) in PER_LAYER.iter().zip(&run.metrics) {
                assert_eq!(name, got, "child prints per-layer metrics in table order");
                println!("  {name:<36} {value:>16.6} {unit}");
            }
            for note in &run.notes {
                println!("  {note}");
            }
        }
    }
    Ok(ok)
}

/// The A/A rule: host-time metrics within the metric's own bound, exact
/// (simulated) metrics and digests identical.
fn sets_agree(workload: &str, a: &Series, b: &Series) -> bool {
    let mut ok = true;
    let same = |(x, y): (&Vec<String>, &Vec<String>)| same_simulation(x, y);
    if !a.digests.iter().zip(&b.digests).all(same) {
        println!("  DISAGREE {workload}: the two sets simulated different things for one seed");
        ok = false;
    }
    for m in END_TO_END
        .iter()
        .filter(|m| m.home.is_none_or(|h| h == workload))
    {
        let (va, vb) = (&a.values[m.name], &b.values[m.name]);
        let (ma, mb) = (quartiles(va).1, quartiles(vb).1);
        let agree = if is_exact(m) {
            va == vb
        } else {
            (mb - ma).abs() <= m.bound * ma.abs()
        };
        println!(
            "  {} {workload} {:<20} A {ma:.6} B {mb:.6} ({:+.2}%, allowed {})",
            if agree { "agree   " } else { "DISAGREE" },
            m.name,
            (mb / ma - 1.0) * 100.0,
            if is_exact(m) {
                "none".to_string()
            } else {
                format!("{}%", m.bound * 100.0)
            },
        );
        ok &= agree;
    }
    ok
}

/// Simulated metrics repeat exactly for one seed; only host metrics vary.
fn is_exact(m: &EndToEnd) -> bool {
    m.home.is_some()
}

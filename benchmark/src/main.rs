//! The repo benchmark. See `benchmark/README.md`.
//!
//! Three ways in, all through `benchmark/run.sh`:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one measured run
//!   ([`run`]); the last line of standard output is the JSON result the
//!   driver reads. This is what `BENCHMARK.json`'s `command` receives.
//! * no `--trace` — the full protocol ([`full`]): rounds of child runs over
//!   every workload, medians with quartiles, then a traced run each.
//! * `--check` — compare the metric and workload tables compiled in here
//!   with `BENCHMARK.json`.

mod cells;
mod clock;
mod fidelity;
mod full;
mod json;
mod metrics;
mod run;
mod span;
mod stats;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  run.sh [--seed N] [--rounds R] [--seconds S] [--workload W] [--no-trace] [--sets 1|2]
      every workload (or W), R rounds of S-second child runs round-robin with
      seeds N..N+R-1, median/q1/q3/spread per metric, then one traced run per
      workload; --sets 2 makes every run twice, interleaved, and compares the
      sets (repeat.sh)
  run.sh --workload W --seed N --seconds S --trace 0|1
      one measured run; the last line of stdout is the JSON result
  run.sh --check
      compare the compiled-in metric and workload names with BENCHMARK.json
defaults: --seed 2015 --rounds 3 --seconds 25 --sets 1";

const DEFAULT_SEED: u64 = 2015;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    rounds: Option<usize>,
    sets: Option<usize>,
    no_trace: bool,
    check: bool,
    help: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("invalid {flag} value '{v}'"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = Some(num(flag, value()?)?),
            "--seconds" => cli.seconds = Some(num(flag, value()?)?),
            "--rounds" => cli.rounds = Some(num(flag, value()?)?),
            "--sets" => cli.sets = Some(num(flag, value()?)?),
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace value '{v}'")),
                })
            }
            "--no-trace" => cli.no_trace = true,
            "--help" | "-h" => cli.help = true,
            "--check" => cli.check = true,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if cli.rounds == Some(0) || !matches!(cli.sets, None | Some(1 | 2)) {
        return Err("--rounds must be at least 1 and --sets 1 or 2".to_string());
    }
    Ok(cli)
}

/// Where `BENCHMARK.json` sits relative to this package.
fn benchmark_json() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The names, units, directions and bounds compiled in here against the
/// ones `BENCHMARK.json` declares, in order. Returns every difference.
fn check_against(text: &str) -> Result<Vec<String>, String> {
    let doc = json::parse(text)?;
    let field = |entry: &json::Value, key: &str| -> String {
        match entry.get(key) {
            Some(json::Value::Str(s)) => s.clone(),
            Some(json::Value::Num(n)) => n.to_string(),
            _ => "<missing>".to_string(),
        }
    };
    let declared = |section: &str, keys: &[&str]| -> Vec<String> {
        doc.get(section)
            .map_or(&[][..], json::Value::as_array)
            .iter()
            .map(|e| {
                keys.iter()
                    .map(|k| field(e, k))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    };
    let mut diffs = Vec::new();
    let mut compare = |section: &str, here: Vec<String>, there: Vec<String>| {
        if here != there {
            diffs.push(format!(
                "{section}: compiled in {here:?}\n  but BENCHMARK.json has {there:?}"
            ));
        }
    };
    compare(
        "workloads",
        cells::WORKLOADS
            .iter()
            .map(|(n, why)| format!("{n} {why}"))
            .collect(),
        declared("workloads", &["name", "why"]),
    );
    compare(
        "end_to_end",
        metrics::END_TO_END
            .iter()
            .map(|m| format!("{} {} {} {}", m.name, m.unit, m.better.name(), m.bound))
            .collect(),
        declared("end_to_end", &["name", "unit", "better", "bound"]),
    );
    compare(
        "per_layer",
        metrics::PER_LAYER
            .iter()
            .map(|(n, u, b)| format!("{n} {u} {}", b.name()))
            .collect(),
        declared("per_layer", &["name", "unit", "better"]),
    );
    Ok(diffs)
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The driver's result line.
fn result_line(o: &run::Outcome) -> Result<String, String> {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a number: {}", m.name, m.value));
            }
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    ))
}

fn single_run(args: &run::RunArgs) -> Result<bool, String> {
    let o = run::measure(args)?;
    let line = result_line(&o)?;
    let digests: Vec<String> = o.sim_digests.iter().map(|d| format!("{d:016x}")).collect();
    println!(
        "run workload={} seed={} trace={} repetitions={} cells={} cells_failed={} sim_digests={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        digests.len(),
        o.attempted,
        o.failed,
        digests.join(",")
    );
    for note in &o.notes {
        println!("note {note}");
    }
    for m in &o.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
    Ok(o.correct)
}

fn dispatch(cli: Cli) -> Result<bool, String> {
    if cli.help {
        println!("{USAGE}");
        return Ok(true);
    }
    if cli.check {
        let path = benchmark_json();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let diffs = check_against(&text)?;
        diffs.iter().for_each(|d| eprintln!("check: {d}"));
        if diffs.is_empty() {
            println!("check: metric and workload tables match BENCHMARK.json");
        }
        return Ok(diffs.is_empty());
    }
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    match cli.trace {
        Some(trace) => single_run(&run::RunArgs {
            workload: cli.workload.ok_or("--trace needs --workload")?,
            seed,
            seconds: cli.seconds.ok_or("--trace needs --seconds")?,
            trace,
        }),
        None => full::full(&full::FullArgs {
            seed,
            rounds: cli.rounds.unwrap_or(3),
            seconds: cli.seconds.unwrap_or(25.0),
            workload: cli.workload,
            trace: !cli.no_trace,
            sets: cli.sets.unwrap_or(1),
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: FAILED (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_accepts_the_driver_invocation_and_rejects_nonsense() {
        let cli = parse_cli(&strings(&[
            "--workload",
            "scale",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("scale"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(7), Some(20.0), Some(true))
        );
        for bad in [
            &["--trace", "2"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--rounds", "0"],
            &["--sets", "3"],
            &["--frobnicate"],
        ] {
            assert!(parse_cli(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// `--check` against the real file: the emitted metric and workload
    /// names equal those in `BENCHMARK.json` exactly.
    #[test]
    fn tables_match_benchmark_json() {
        let text = std::fs::read_to_string(benchmark_json()).expect("BENCHMARK.json is readable");
        assert_eq!(check_against(&text).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn check_reports_a_renamed_metric() {
        let text = std::fs::read_to_string(benchmark_json()).unwrap();
        let diffs = check_against(&text.replace("\"setup_s\"", "\"setup_seconds\"")).unwrap();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].starts_with("end_to_end"));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let o = run::Outcome {
            correct: true,
            attempted: 40,
            failed: 0,
            sim_digests: vec![1, 2],
            metrics: vec![metrics::Reading {
                name: "cpu_s",
                unit: "s",
                value: 3.25,
            }],
            notes: vec![],
        };
        let line = result_line(&o).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \
             \"metrics\": {\"cpu_s\": {\"value\": 3.25, \"unit\": \"s\"}}}"
        );
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("cpu_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(3.25)
        );
        let mut bad = o;
        bad.metrics[0].value = f64::NAN;
        assert!(result_line(&bad).is_err());
    }
}

//! serve — serving-scenario latency exhibit.
//!
//! Replays a deterministic open-loop flash-crowd request stream against
//! the memcached model on a large core count (default 64), in baseline
//! HTM and Staggered modes, across a ladder of offered loads, and reports
//! per-request latency percentiles against a p99 SLO. Latency is derived
//! purely from the observability event stream (arrival → commit, aborted
//! attempts included), so every table row is a simulated quantity.
//!
//! The final `SLO:` lines show the paper's mechanism from the service
//! owner's seat: under the flash crowd, plain HTM's retry storms blow
//! through the tail budget at loads where staggered transactions still
//! hold it.
//!
//! `--jsonl FILE` exports every request (latency + component breakdown +
//! dominant blame) as JSON Lines; `--json` dumps the harness report to
//! `results/BENCH_serve.json`.

use htm_sim::MachineConfig;
use stagger_bench::{Args, CommonOpts, Exhibit};
use stagger_core::Mode;
use std::io::Write as _;
use workloads::serve::Serve;

struct ServeOpts {
    common: CommonOpts,
    cores: usize,
    /// Mean interarrival cycles per core, one run per value.
    loads: Vec<u64>,
    /// p99 latency budget, simulated cycles.
    slo: u64,
    jsonl: Option<String>,
}

impl ServeOpts {
    fn from_args() -> ServeOpts {
        let mut cores = 64usize;
        let mut loads: Vec<u64> = vec![48_000, 36_000, 24_000, 8_000];
        // 250k cycles = 100 us at the simulated 2.5 GHz — a realistic
        // tail budget for an in-memory cache service.
        let mut slo = 250_000u64;
        let mut jsonl = None;
        let common = CommonOpts::parse_with(
            "[--cores N] [--loads LIST] [--slo CYCLES] [--jsonl FILE]",
            "serve options:\n  \
             --cores N        simulated cores (default 64)\n  \
             --loads LIST     comma-separated mean interarrival cycles per core,\n                   \
             one run per value (default 48000,36000,24000,8000)\n  \
             --slo CYCLES     p99 latency budget in simulated cycles (default 250000)\n  \
             --jsonl FILE     export every request as JSON Lines",
            |a: &mut Args, flag: &str| match flag {
                "--cores" => {
                    cores = a.parsed("--cores");
                    if !MachineConfig::CORES.contains(&cores) {
                        a.fail(&format!("--cores must be in {:?}", MachineConfig::CORES));
                    }
                    true
                }
                "--loads" => {
                    let v = a.value("--loads");
                    loads = v
                        .split(',')
                        .map(|t| {
                            let n: u64 = t.trim().parse().unwrap_or_else(|_| {
                                a.fail(&format!("invalid --loads value '{v}'"))
                            });
                            // Full scale has the most requests per core,
                            // so a load it accepts fits at both scales.
                            if Serve::parse_name(&format!("serve-flash-i{n}"), false).is_none() {
                                a.fail(&format!("--loads value {n} is 0 or its arrivals overflow"));
                            }
                            n
                        })
                        .collect();
                    if loads.is_empty() {
                        a.fail("--loads needs at least one value");
                    }
                    true
                }
                "--slo" => {
                    slo = a.parsed("--slo");
                    true
                }
                "--jsonl" => {
                    jsonl = Some(a.value("--jsonl"));
                    true
                }
                _ => false,
            },
        );
        ServeOpts {
            common,
            cores,
            loads,
            slo,
            jsonl,
        }
    }
}

const MODES: [Mode; 2] = [Mode::Htm, Mode::Staggered];

fn main() {
    let opts = ServeOpts::from_args();
    let ex = Exhibit::new("serve", &opts.common);
    ex.banner(&format!(
        "Serving scenario: serve-flash open-loop ramp x {{HTM, Staggered}} on {} cores, \
         p99 SLO {} cycles",
        opts.cores, opts.slo
    ));
    ex.header(&format!(
        "{:<16} {:<10} {:>6} {:>8} {:>6} {:>12} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "workload",
        "mode",
        "cores",
        "load/core",
        "reqs",
        "sim_cycles",
        "req/Mcyc",
        "p50",
        "p90",
        "p99",
        "p999",
        "max",
        "p99<=SLO"
    ));

    // One workload (and one compile) per offered-load rung.
    let rung_names: Vec<String> = opts
        .loads
        .iter()
        .map(|ia| format!("serve-flash-i{ia}"))
        .collect();
    let rung_workloads: Vec<Box<dyn workloads::Workload>> =
        rung_names.iter().map(|name| ex.workload(name)).collect();
    let prepared = ex.prepare(&rung_workloads);

    // Regenerate each rung's arrival schedule (a pure function of the
    // workload config) so request latency is measured from *arrival*,
    // queueing included.
    let arrivals: Vec<Vec<Vec<u64>>> = rung_names
        .iter()
        .map(|name| {
            let cfg = Serve::parse_name(name, opts.common.quick).expect("serve names parse");
            (0..opts.cores)
                .map(|c| cfg.schedule(c).iter().map(|r| r.arrival).collect())
                .collect()
        })
        .collect();

    // Run every (mode, load) cell through the pool with event recording
    // on. Recorded below with request-level latency, so not through
    // `Exhibit::run`, which would add a transaction-level digest.
    let runs = ex.pool(
        MODES
            .iter()
            .flat_map(|&mode| {
                let ex = &ex;
                let cores = opts.cores;
                prepared.iter().map(move |p| {
                    let mut spec = ex.spec(p, mode, cores);
                    spec.machine.record_events = true;
                    move || spec.run(p)
                })
            })
            .collect(),
    );

    let mut jsonl = opts.jsonl.as_ref().map(|path| {
        let f = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("serve: cannot create {path}: {e}"));
        std::io::BufWriter::new(f)
    });

    // Highest load (smallest interarrival) each mode sustains within SLO.
    let mut sustained: Vec<(Mode, Option<u64>)> = MODES.iter().map(|&m| (m, None)).collect();

    for (i, r) in runs.iter().enumerate() {
        let rung = i % opts.loads.len();
        let ia = opts.loads[rung];
        let reqs = htm_sim::request_latencies(&r.events, &arrivals[rung]);
        let hist = htm_sim::histogram_of(&reqs);
        let s = hist.summary();
        ex.record_with_latency(r, s);

        if let Some(w) = jsonl.as_mut() {
            for q in &reqs {
                writeln!(
                    w,
                    "{{\"workload\":\"{}\",\"mode\":\"{}\",\"core\":{},\"index\":{},\
                     \"arrival\":{},\"completion\":{},\"latency\":{},\"queue\":{},\
                     \"lock_wait\":{},\"backoff\":{},\"retry\":{},\"irrevocable\":{},\
                     \"service\":{},\"aborts\":{},\"dominant\":\"{}\"}}",
                    r.name,
                    r.mode.name(),
                    q.core,
                    q.index,
                    q.arrival,
                    q.completion,
                    q.total(),
                    q.queue,
                    q.lock_wait,
                    q.backoff,
                    q.retry,
                    q.irrevocable,
                    q.service,
                    q.aborted_attempts,
                    q.dominant().0,
                )
                .expect("serve: jsonl write");
            }
        }

        let ok = s.p99 <= opts.slo;
        if ok {
            let entry = &mut sustained[i / opts.loads.len()].1;
            *entry = Some(entry.map_or(ia, |best: u64| best.min(ia)));
        }
        Exhibit::warn_dropped_events(r);
        let cycles = r.cycles().max(1);
        let req_per_mcyc = s.count * 1_000_000 / cycles;
        println!(
            "{:<16} {:<10} {:>6} {:>8} {:>6} {:>12} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
            r.name,
            r.mode.name(),
            r.n_threads,
            ia,
            s.count,
            r.cycles(),
            req_per_mcyc,
            s.p50,
            s.p90,
            s.p99,
            s.p999,
            s.max,
            if ok { "ok" } else { "VIOLATED" },
        );
    }

    if let Some(mut w) = jsonl {
        w.flush().expect("serve: jsonl flush");
        println!("serve: wrote {}", opts.jsonl.as_deref().unwrap());
    }

    println!();
    for (mode, best) in &sustained {
        match best {
            Some(ia) => println!(
                "SLO: {} holds p99 <= {} down to interarrival {} cycles/core",
                mode.name(),
                opts.slo,
                ia
            ),
            None => println!(
                "SLO: {} violates p99 <= {} at every offered load",
                mode.name(),
                opts.slo
            ),
        }
    }
    ex.finish();
}

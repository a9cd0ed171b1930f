//! The five workloads as lists of simulator cells, and the two ways a cell
//! is run: through `PreparedWorkload::run_on` (untraced, what is timed for
//! the end-to-end metrics) and layer by layer with a span around each call
//! (traced). Both must produce the same simulated counters; the digest
//! over them is how that, and determinism across repetitions, is checked.
//!
//! One client, closed loop: one single-threaded process runs one cell
//! after another, each on a fresh `Machine` (simulated caches start
//! empty), with the library-default scheduler and interpreter.

use crate::clock::{cpu_ns, cpu_timed};
use crate::fidelity::SERVE_LADDER;
use crate::span::Tracer;
use htm_sim::{histogram_of, request_latencies, LatencySummary, Machine, MachineConfig, ObsEvent};
use stagger_compiler::{compile, Compiled};
use stagger_core::{Mode, RuntimeConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use tm_interp::{run_workload_prepared, Prepared, RunOutcome, ThreadPlan};
use workloads::serve::Serve;
use workloads::{workload_by_name, workload_names, PreparedWorkload, Workload};

/// Workload names and why each was chosen, in reporting order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "paper16",
        "Figure 7 as published: ten workloads, full scale, HTM and Staggered at 16 cores; every crate in the paper's proportions",
    ),
    (
        "interp1",
        "ten workloads on 1 core, HTM: no conflicts or scheduling, so interpreter dispatch and per-cell machine set-up dominate",
    ),
    (
        "scale",
        "list-hi at 64 and memcached at 256 cores: gated ops outnumber instructions, so the scheduler, CoreSet and conflict walk dominate",
    ),
    (
        "serve64",
        "open-loop flash-crowd serving at four fixed rates on 64 cores with event recording on and latency derivation",
    ),
    (
        "quick50",
        "fig7 --quick's 50 short cells through the job pool: per-cell fixed cost; the only AddrOnly and Staggered+SW runs",
    ),
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Registry name (`workload_by_name`) or a `serve-*` name.
    pub name: String,
    /// Smoke scale (the harnesses' `--quick`) instead of full scale.
    pub quick: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Index into [`Plan::programs`].
    pub program: usize,
    pub mode: Mode,
    pub cores: usize,
    /// Record the observability event stream and derive request latency.
    pub record: bool,
}

/// One workload: the programs to prepare and the cells to run on them.
#[derive(Debug, Clone)]
pub struct Plan {
    pub programs: Vec<ProgramSpec>,
    pub cells: Vec<CellSpec>,
    /// Dispatch the cells through `stagger_bench::run_jobs(_, 1)`, as the
    /// exhibit binaries do, instead of a plain loop.
    pub pooled: bool,
}

impl Plan {
    fn program(&mut self, name: &str, quick: bool) -> usize {
        self.programs.push(ProgramSpec {
            name: name.to_string(),
            quick,
        });
        self.programs.len() - 1
    }

    fn cell(&mut self, program: usize, mode: Mode, cores: usize) {
        self.cells.push(CellSpec {
            program,
            mode,
            cores,
            record: false,
        });
    }
}

pub fn plan(workload: &str) -> Option<Plan> {
    let mut p = Plan {
        programs: Vec::new(),
        cells: Vec::new(),
        pooled: false,
    };
    const PAIR: [Mode; 2] = [Mode::Htm, Mode::Staggered];
    match workload {
        "paper16" => {
            for name in workload_names() {
                let prog = p.program(name, false);
                for mode in PAIR {
                    p.cell(prog, mode, 16);
                }
            }
        }
        "interp1" => {
            for name in workload_names() {
                let prog = p.program(name, false);
                p.cell(prog, Mode::Htm, 1);
            }
        }
        "scale" => {
            for (name, quick, cores) in [("list-hi", false, 64), ("memcached", true, 256)] {
                let prog = p.program(name, quick);
                for mode in PAIR {
                    p.cell(prog, mode, cores);
                }
            }
        }
        "serve64" => {
            for ia in SERVE_LADDER {
                let prog = p.program(&format!("serve-flash-i{ia}"), false);
                for mode in PAIR {
                    p.cell(prog, mode, 64);
                }
            }
            for c in &mut p.cells {
                c.record = true;
            }
        }
        "quick50" => {
            p.pooled = true;
            for name in workload_names() {
                let prog = p.program(name, true);
                p.cell(prog, Mode::Htm, 1);
                for mode in Mode::ALL {
                    p.cell(prog, mode, 16);
                }
            }
        }
        _ => return None,
    }
    Some(p)
}

/// A program's source: the workload object its module, data and checks
/// come from.
pub enum Source {
    Registry(Box<dyn Workload>),
    /// Kept concrete: request arrivals are regenerated from it after a run.
    Serve(Serve),
}

impl Source {
    /// # Panics
    /// Panics on a name the registry does not know — a bug in [`plan`].
    pub fn open(spec: &ProgramSpec, seed: u64) -> Source {
        if spec.name.starts_with("serve-") {
            let mut s = Serve::parse_name(&spec.name, spec.quick).expect("plan names parse");
            // The request stream is this workload's input, so it comes
            // from the benchmark seed like the `rand` streams of the rest.
            s.schedule_seed = seed;
            Source::Serve(s)
        } else {
            Source::Registry(workload_by_name(&spec.name, spec.quick).expect("plan names exist"))
        }
    }

    pub fn workload(&self) -> &dyn Workload {
        match self {
            Source::Registry(w) => w.as_ref(),
            Source::Serve(s) => s,
        }
    }

    /// Per-core request arrival times (none for the registry workloads,
    /// whose latency would run from each transaction's first attempt).
    fn arrivals(&self, cores: usize) -> Vec<Vec<u64>> {
        match self {
            Source::Registry(_) => Vec::new(),
            Source::Serve(s) => (0..cores)
                .map(|c| s.schedule(c).iter().map(|r| r.arrival).collect())
                .collect(),
        }
    }
}

pub fn open_sources(plan: &Plan, seed: u64) -> Vec<Source> {
    plan.programs
        .iter()
        .map(|p| Source::open(p, seed))
        .collect()
}

/// Untraced preparation, exactly what the harnesses do.
pub fn prepare(sources: &[Source]) -> Vec<PreparedWorkload<'_>> {
    sources
        .iter()
        .map(|s| PreparedWorkload::new(s.workload()))
        .collect()
}

/// A program prepared layer by layer, for the traced path.
pub struct Handmade {
    pub compiled: Compiled,
    pub prepared: Arc<Prepared>,
}

/// Traced preparation: `prepare` > `program` > one span per layer.
/// `compile` verifies and analyses its input itself, so the separate
/// `tm-ir.verify` and `tm-dsa.analyze` calls here repeat that work to time
/// it; [`crate::metrics`] subtracts them from the compile span.
pub fn prepare_traced(sources: &[Source], t: &Tracer) -> Vec<Handmade> {
    t.span("prepare", None, None, |prep| {
        sources
            .iter()
            .map(|s| {
                t.span("program", Some(prep), None, |prog| {
                    let layer = Some(prog);
                    let module = t.span("workloads.build_module", layer, None, |_| {
                        s.workload().build_module()
                    });
                    t.span("tm-ir.verify", layer, None, |_| {
                        tm_ir::verify_module(&module).expect("workload modules verify")
                    });
                    t.span("tm-dsa.analyze", layer, None, |_| {
                        std::hint::black_box(tm_dsa::analyze_module(&module));
                    });
                    let compiled = t.span("stagger-compiler.compile", layer, None, |_| {
                        compile(&module)
                    });
                    let prepared = t.span("tm-interp.lower", layer, None, |_| {
                        Arc::new(Prepared::build(&compiled))
                    });
                    Handmade { compiled, prepared }
                })
            })
            .collect()
    })
}

/// What came out of the event stream of a recording cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observed {
    pub latency: LatencySummary,
    pub events: u64,
    /// Cores whose stream is exactly as long as the ring: the ring may
    /// have wrapped and dropped the oldest events, which is not visible
    /// from outside (`EventRing::dropped` does not survive `take_events`).
    pub rings_full: u64,
}

#[derive(Debug, Clone)]
pub struct CellOut {
    /// `None` when the cell panicked: a failed `validate` inside `run_on`,
    /// or a crash inside a crate.
    pub out: Option<RunOutcome>,
    /// The workload's own post-condition held.
    pub valid: bool,
    /// CPU ns of populate + execute + validate: the interval `run_on`
    /// covers and `ns_per_inst` has always reported.
    pub run_cpu_ns: u64,
    pub observed: Option<Observed>,
}

impl CellOut {
    pub fn ok(&self) -> bool {
        self.out.is_some() && self.valid
    }

    fn panicked() -> CellOut {
        CellOut {
            out: None,
            valid: false,
            run_cpu_ns: 0,
            observed: None,
        }
    }
}

fn machine_config(spec: &CellSpec) -> MachineConfig {
    let cfg = MachineConfig::cores(spec.cores);
    if spec.record {
        cfg.record_events()
    } else {
        cfg
    }
}

fn derive_latency(src: &Source, spec: &CellSpec, events: &[Vec<ObsEvent>]) -> LatencySummary {
    let requests = request_latencies(events, &src.arrivals(spec.cores));
    histogram_of(&requests).summary()
}

fn observed(spec: &CellSpec, events: &[Vec<ObsEvent>], latency: LatencySummary) -> Observed {
    let cap = machine_config(spec).event_ring_capacity;
    Observed {
        latency,
        events: events.iter().map(|e| e.len() as u64).sum(),
        rings_full: events.iter().filter(|e| e.len() == cap).count() as u64,
    }
}

/// Run one cell through `PreparedWorkload::run_on`.
pub fn run_cell(src: &Source, p: &PreparedWorkload, spec: &CellSpec, seed: u64) -> CellOut {
    // `run_on` panics when the workload's validation fails; that is a
    // failed cell, not a crashed benchmark.
    let body = catch_unwind(AssertUnwindSafe(|| {
        let machine = Machine::new(machine_config(spec));
        let rt = RuntimeConfig::with_mode(spec.mode);
        let run0 = cpu_ns();
        let r = p.run_on(&machine, &rt, seed);
        let run_cpu_ns = cpu_ns() - run0;
        let obs = spec.record.then(|| {
            let events = machine.take_events();
            observed(spec, &events, derive_latency(src, spec, &events))
        });
        (r.out, run_cpu_ns, obs)
    }));
    match body {
        Ok((out, run_cpu_ns, observed)) => CellOut {
            out: Some(out),
            valid: true,
            run_cpu_ns,
            observed,
        },
        Err(_) => CellOut::panicked(),
    }
}

/// Run one cell by calling each layer's public function in turn, a span
/// around each: `cell` > {`htm-sim.machine_new`, `workloads.populate`,
/// `tm-interp.run`, `workloads.validate`, `htm-sim.take_events`,
/// `htm-sim.latency`, `htm-sim.machine_drop`}.
pub fn run_cell_traced(
    t: &Tracer,
    parent: u32,
    index: u32,
    src: &Source,
    h: &Handmade,
    spec: &CellSpec,
    seed: u64,
) -> CellOut {
    let body = t.span("cell", Some(parent), Some(index), |cell| {
        catch_unwind(AssertUnwindSafe(|| {
            let (cell, index) = (Some(cell), Some(index));
            let w = src.workload();
            let machine = t.span("htm-sim.machine_new", cell, index, |_| {
                Machine::new(machine_config(spec))
            });
            let run0 = cpu_ns();
            let args = t.span("workloads.populate", cell, index, |_| {
                w.setup(&machine, spec.cores)
            });
            let entry = h.compiled.module.expect("thread_main");
            let plans: Vec<ThreadPlan> = args
                .iter()
                .map(|a| ThreadPlan {
                    func: entry,
                    args: a.clone(),
                })
                .collect();
            let rt = RuntimeConfig::with_mode(spec.mode);
            let out = t.span("tm-interp.run", cell, index, |_| {
                run_workload_prepared(&machine, &h.compiled, &h.prepared, &rt, &plans, seed)
            });
            let valid = t.span("workloads.validate", cell, index, |_| {
                w.validate(&machine, &args, &out)
            });
            let run_cpu_ns = cpu_ns() - run0;
            if let Err(e) = &valid {
                eprintln!("benchmark: {} failed validation: {e}", w.name());
            }
            let obs = spec.record.then(|| {
                let events = t.span("htm-sim.take_events", cell, index, |_| {
                    machine.take_events()
                });
                let latency = t.span("htm-sim.latency", cell, index, |_| {
                    derive_latency(src, spec, &events)
                });
                observed(spec, &events, latency)
            });
            t.span("htm-sim.machine_drop", cell, index, |_| drop(machine));
            (out, valid.is_ok(), run_cpu_ns, obs)
        }))
    });
    match body {
        Ok((out, valid, run_cpu_ns, observed)) => CellOut {
            out: Some(out),
            valid,
            run_cpu_ns,
            observed,
        },
        Err(_) => CellOut::panicked(),
    }
}

/// One pass over a plan's cells.
#[derive(Debug, Clone)]
pub struct Repetition {
    pub cells: Vec<CellOut>,
    pub cpu_s: f64,
    pub wall_s: f64,
}

fn dispatch<T: Send>(pooled: bool, jobs: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
    if pooled {
        stagger_bench::run_jobs(jobs, 1)
    } else {
        jobs.into_iter().map(|job| job()).collect()
    }
}

fn timed_repetition(run: impl FnOnce() -> Vec<CellOut>) -> Repetition {
    let wall = Instant::now();
    let (cpu_s, cells) = cpu_timed(run);
    Repetition {
        cells,
        cpu_s,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

pub fn run_repetition(
    plan: &Plan,
    sources: &[Source],
    prepared: &[PreparedWorkload],
    seed: u64,
) -> Repetition {
    timed_repetition(|| {
        let jobs = plan
            .cells
            .iter()
            .map(|c| move || run_cell(&sources[c.program], &prepared[c.program], c, seed))
            .collect();
        dispatch(plan.pooled, jobs)
    })
}

/// `repetition` > one `cell` per cell, recorded into `t`.
pub fn run_repetition_traced(
    plan: &Plan,
    sources: &[Source],
    handmade: &[Handmade],
    seed: u64,
    t: &Tracer,
) -> Repetition {
    timed_repetition(|| {
        t.span("repetition", None, None, |rep| {
            let jobs = plan
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    move || {
                        let (src, h) = (&sources[c.program], &handmade[c.program]);
                        run_cell_traced(t, rep, i as u32, src, h, c, seed)
                    }
                })
                .collect();
            dispatch(plan.pooled, jobs)
        })
    })
}

/// FNV-1a over every cell's simulated counters: two runs agree on this
/// exactly when they simulated the same thing. Host-side counters
/// (scheduler repairs, speculation) and host times stay out.
pub fn sim_digest(cells: &[CellOut]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in cells {
        word(c.ok() as u64);
        let Some(out) = &c.out else { continue };
        let a = out.sim.aggregate();
        for v in [
            out.sim.exec_cycles,
            out.exec.insts,
            a.gated_ops,
            a.commits,
            a.irrevocable_commits,
            a.conflict_aborts,
            a.capacity_aborts,
            a.explicit_aborts,
            a.subscription_aborts,
            out.rt.locks_acquired,
            out.rt.lock_timeouts,
        ] {
            word(v);
        }
        out.returns.iter().for_each(|&r| word(r));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_have_the_documented_shapes() {
        let shape = |w: &str| {
            let p = plan(w).unwrap();
            (p.programs.len(), p.cells.len())
        };
        assert_eq!(shape("paper16"), (10, 20));
        assert_eq!(shape("interp1"), (10, 10));
        assert_eq!(shape("scale"), (2, 4));
        assert_eq!(shape("serve64"), (4, 8));
        assert_eq!(shape("quick50"), (10, 50));
        assert!(plan("nope").is_none());
        for (name, why) in WORKLOADS {
            let p = plan(name).unwrap();
            assert!(p.cells.iter().all(|c| c.program < p.programs.len()));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(plan("serve64").unwrap().cells.iter().all(|c| c.record));
        assert!(plan("quick50").unwrap().pooled);
    }

    /// A tiny cell — quick list-hi, HTM and Staggered on 4 cores — run
    /// twice through `run_on` and once layer by layer.
    #[test]
    fn digest_is_stable_across_runs_and_across_the_two_paths() {
        let mut p = Plan {
            programs: Vec::new(),
            cells: Vec::new(),
            pooled: false,
        };
        let prog = p.program("list-hi", true);
        p.cell(prog, Mode::Htm, 4);
        p.cell(prog, Mode::Staggered, 4);
        let sources = open_sources(&p, 7);
        let prepared = prepare(&sources);
        let a = run_repetition(&p, &sources, &prepared, 7);
        let b = run_repetition(&p, &sources, &prepared, 7);
        assert!(a.cells.iter().all(CellOut::ok));
        assert_eq!(sim_digest(&a.cells), sim_digest(&b.cells));

        let t = Tracer::default();
        let handmade = prepare_traced(&sources, &t);
        let c = run_repetition_traced(&p, &sources, &handmade, 7, &t);
        assert_eq!(sim_digest(&a.cells), sim_digest(&c.cells));
        let names: Vec<&str> = t.into_spans().iter().map(|s| s.name).collect();
        for layer in [
            "prepare",
            "program",
            "workloads.build_module",
            "tm-ir.verify",
            "tm-dsa.analyze",
            "stagger-compiler.compile",
            "tm-interp.lower",
            "repetition",
            "cell",
            "htm-sim.machine_new",
            "workloads.populate",
            "tm-interp.run",
            "workloads.validate",
            "htm-sim.machine_drop",
        ] {
            assert!(names.contains(&layer), "missing span {layer}");
        }

        // Another seed is another input, and the digest sees it.
        let other = run_repetition(&p, &sources, &prepared, 8);
        assert_ne!(sim_digest(&a.cells), sim_digest(&other.cells));
        // A failed cell changes the digest even with equal counters.
        let mut failed = a.cells.clone();
        failed[0].valid = false;
        assert_ne!(sim_digest(&a.cells), sim_digest(&failed));
    }

    #[test]
    fn recording_cells_report_latency_and_the_same_counters() {
        let mut p = Plan {
            programs: Vec::new(),
            cells: Vec::new(),
            pooled: true,
        };
        let prog = p.program("serve-flash-i600", true);
        p.cell(prog, Mode::Staggered, 4);
        let sources = open_sources(&p, 3);
        let prepared = prepare(&sources);
        let off = run_repetition(&p, &sources, &prepared, 3);
        p.cells[0].record = true;
        let on = run_repetition(&p, &sources, &prepared, 3);
        assert_eq!(sim_digest(&off.cells), sim_digest(&on.cells));
        assert!(off.cells[0].observed.is_none());
        let obs = on.cells[0].observed.expect("recording cell observes");
        assert_eq!(obs.latency.count, 4 * 24, "every request has a latency");
        assert!(obs.events > 0 && obs.rings_full == 0);
    }
}

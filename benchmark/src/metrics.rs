//! The metric tables — names, units, directions and regression bounds,
//! mirrored by `BENCHMARK.json` and checked against it by `--check` — and
//! the arithmetic that turns repetitions and spans into their values.

use crate::cells::{CellOut, CellSpec, Plan, Repetition};
use crate::fidelity;
use crate::span::{self_times, Span};
use crate::stats::{median, quartiles};
use stagger_core::Mode;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// The one workload that measures it; `None` for a host metric every
    /// workload measures. Elsewhere the metric reads [`NOT_MEASURED`].
    pub home: Option<&'static str>,
}

/// What a workload prints for an end-to-end metric it does not measure
/// (the driver's contract wants every metric from every workload, and
/// never a zero).
pub const NOT_MEASURED: f64 = 1.0;

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        home: None,
    },
    EndToEnd {
        name: "cpu_ns_per_gated_op",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        home: None,
    },
    EndToEnd {
        name: "sim_minsts_per_s",
        unit: "Minst/s",
        better: Higher,
        bound: 0.25,
        home: None,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
        home: None,
    },
    EndToEnd {
        name: "fig7_hmean",
        unit: "ratio",
        better: Higher,
        bound: 0.10,
        home: Some("paper16"),
    },
    EndToEnd {
        name: "fig7_cells_in_band",
        unit: "count",
        better: Higher,
        bound: 0.25,
        home: Some("paper16"),
    },
    EndToEnd {
        name: "serve_p99_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.05,
        home: Some("serve64"),
    },
    EndToEnd {
        name: "serve_slo_rate",
        unit: "req/Mcycle",
        better: Higher,
        bound: 0.25,
        home: Some("serve64"),
    },
];

/// `(name, unit, better)`; the layer is the crate named before the dot.
pub const PER_LAYER: [(&str, &str, Better); 49] = [
    ("htm-sim.machine_new_s", "s", Lower),
    ("htm-sim.machine_drop_s", "s", Lower),
    ("tm-interp.run_s", "s", Lower),
    ("tm-interp.sim_insts", "count", Lower),
    ("tm-interp.ns_per_sim_inst", "ns", Lower),
    ("tm-interp.insts_per_gated_op", "ratio", Higher),
    ("htm-sim.gated_ops", "count", Lower),
    ("htm-sim.ns_per_gated_op", "ns", Lower),
    ("htm-sim.sched_calls", "count", Lower),
    ("htm-sim.sched_stale_ratio", "ratio", Lower),
    ("tm-interp.run_s.c64", "s", Lower),
    ("tm-interp.run_s.c256", "s", Lower),
    ("htm-sim.ns_per_gated_op.c64", "ns", Lower),
    ("htm-sim.ns_per_gated_op.c256", "ns", Lower),
    ("htm-sim.commits", "count", Higher),
    ("htm-sim.aborts", "count", Lower),
    ("htm-sim.commit_ratio", "ratio", Higher),
    ("htm-sim.wasted_cycle_ratio", "ratio", Lower),
    ("htm-sim.sim_cycles", "cycles", Lower),
    ("stagger-core.locks_acquired", "count", Higher),
    ("stagger-core.lock_timeouts", "count", Lower),
    ("stagger-core.alps_executed", "count", Lower),
    ("stagger-core.anchor_accuracy", "ratio", Higher),
    ("stagger-core.lock_wait_cycle_ratio", "ratio", Lower),
    ("tm-interp.run_s.htm", "s", Lower),
    ("tm-interp.run_s.addronly", "s", Lower),
    ("tm-interp.run_s.staggered-sw", "s", Lower),
    ("tm-interp.run_s.staggered", "s", Lower),
    ("htm-sim.take_events_s", "s", Lower),
    ("htm-sim.events", "count", Lower),
    ("htm-sim.events_at_capacity", "count", Lower),
    ("htm-sim.latency_s", "s", Lower),
    ("htm-sim.obs_overhead_ratio", "ratio", Lower),
    ("workloads.build_module_s", "s", Lower),
    ("tm-ir.verify_s", "s", Lower),
    ("tm-dsa.analyze_s", "s", Lower),
    ("stagger-compiler.compile_s", "s", Lower),
    ("stagger-compiler.anchors", "count", Lower),
    ("stagger-compiler.loads_stores", "count", Lower),
    ("tm-interp.lower_s", "s", Lower),
    ("workloads.populate_s", "s", Lower),
    ("workloads.validate_s", "s", Lower),
    ("stagger-bench.pool_overhead_s", "s", Lower),
    ("stagger-bench.sweep_cold_s", "s", Lower),
    ("stagger-bench.sweep_warm_s", "s", Lower),
    ("stagger-bench.sweep_warm_hits", "count", Higher),
    ("stagger-bench.cpu_s", "s", Lower),
    ("stagger-bench.wall_s", "s", Lower),
    ("stagger-bench.trace_overhead_ratio", "ratio", Lower),
];

/// A metric as printed: `value` keeps every digit measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated insts per CPU second inside `run_on`, in millions.
fn minsts_per_s(rep: &Repetition) -> f64 {
    let insts: u64 = rep
        .cells
        .iter()
        .flat_map(|c| &c.out)
        .map(|o| o.exec.insts)
        .sum();
    let ns: u64 = rep.cells.iter().map(|c| c.run_cpu_ns).sum();
    ratio(insts as f64 * 1e3, ns as f64)
}

/// All the CPU a repetition cost — machines built and dropped, events
/// taken, latency derived, not only `run_on` — per gated operation it
/// simulated. Host cost follows the gated-op count from seed to seed, so
/// this holds still where raw CPU seconds move with the seed's contention.
fn cpu_ns_per_gated_op(rep: &Repetition) -> f64 {
    let gated: u64 = rep
        .cells
        .iter()
        .flat_map(|c| &c.out)
        .map(|o| o.sim.aggregate().gated_ops)
        .sum();
    ratio(rep.cpu_s * 1e9, gated as f64)
}

/// `(registry name, cycles(HTM) / cycles(Staggered))` for every program
/// of `plan` that ran in both modes at one core count.
fn staggered_speedups<'p>(plan: &'p Plan, cells: &[CellOut]) -> Vec<(&'p str, f64)> {
    let cycles = |program: usize, mode: Mode| {
        plan.cells
            .iter()
            .zip(cells)
            .find(|(s, _)| s.program == program && s.mode == mode && s.cores > 1)
            .and_then(|(_, c)| c.out.as_ref())
            .map(|o| o.sim.exec_cycles as f64)
    };
    (0..plan.programs.len())
        .filter_map(|p| {
            let speedup = cycles(p, Mode::Htm)? / cycles(p, Mode::Staggered)?;
            Some((plan.programs[p].name.as_str(), speedup))
        })
        .collect()
}

/// Staggered `(interarrival, p99)` per rung of the serving ladder.
fn staggered_rungs(plan: &Plan, cells: &[CellOut]) -> Vec<(u64, u64)> {
    plan.cells
        .iter()
        .zip(cells)
        .filter(|(s, _)| s.mode == Mode::Staggered)
        .filter_map(|(s, c)| {
            let name = &plan.programs[s.program].name;
            let ia = name.rsplit_once("-i")?.1.parse().ok()?;
            Some((ia, c.observed?.latency.p99))
        })
        .collect()
}

/// Simulated metrics are means over the first this many repetitions of a
/// run (over all of them if fewer ran), so their values do not depend on
/// how many repetitions the host found time for.
pub const SIM_REPETITIONS: usize = 5;

/// One repetition's value of a fidelity or serving metric, on its home
/// workload.
fn simulated_metric(name: &str, plan: &Plan, cells: &[CellOut]) -> f64 {
    match name {
        "fig7_hmean" => {
            let speedups = staggered_speedups(plan, cells);
            fidelity::harmonic_mean(&speedups.iter().map(|&(_, s)| s).collect::<Vec<_>>())
        }
        "fig7_cells_in_band" => {
            fidelity::fig7_cells_in_band(&staggered_speedups(plan, cells)) as f64
        }
        "serve_p99_cycles" => staggered_rungs(plan, cells)
            .iter()
            .find(|&&(ia, _)| ia == fidelity::SERVE_P99_RUNG)
            .map_or(0.0, |&(_, p99)| p99 as f64),
        "serve_slo_rate" => fidelity::slo_rate(&staggered_rungs(plan, cells)),
        _ => unreachable!("{name} has no home workload"),
    }
}

fn simulated(reps: &[Repetition]) -> &[Repetition] {
    &reps[..reps.len().min(SIM_REPETITIONS)]
}

fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len() as f64;
    xs.sum::<f64>() / n
}

/// The quartile of a host measurement's samples on its better side: the
/// first for a cost, the third for a rate. The host's noise only ever adds
/// time (a neighbour evicting the caches, a burst of steal), in spells that
/// can cover half a run, so the quiet quarter of a run's repetitions
/// repeats from run to run better than their median does (by a quarter to
/// a half of the spread, measured on this sandbox).
fn quiet_quartile(samples: &[f64], better: Better) -> f64 {
    let (q1, _, q3) = quartiles(samples);
    // With two or three samples the quantile rule extrapolates past them.
    let (min, max) = samples
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    match better {
        Lower => q1.max(min),
        Higher => q3.min(max),
    }
}

/// Every end-to-end metric for one untraced run of `workload`.
pub fn end_to_end(
    workload: &str,
    plan: &Plan,
    setups_s: &[f64],
    reps: &[Repetition],
    peak_rss_mb: f64,
) -> Vec<Reading> {
    let over_reps = |f: fn(&Repetition) -> f64, better: Better| {
        quiet_quartile(&reps.iter().map(f).collect::<Vec<_>>(), better)
    };
    END_TO_END
        .iter()
        .map(|m| {
            let value = match (m.name, m.home) {
                ("setup_s", _) => quiet_quartile(setups_s, m.better),
                ("cpu_ns_per_gated_op", _) => over_reps(cpu_ns_per_gated_op, m.better),
                ("sim_minsts_per_s", _) => over_reps(minsts_per_s, m.better),
                ("peak_rss_mb", _) => peak_rss_mb,
                (name, Some(home)) if home == workload => mean(
                    simulated(reps)
                        .iter()
                        .map(|r| simulated_metric(name, plan, &r.cells)),
                ),
                _ => NOT_MEASURED,
            };
            Reading {
                name: m.name,
                unit: m.unit,
                value,
            }
        })
        .collect()
}

/// Lines for the human report: what the simulated metrics were made of,
/// one value per repetition they cover.
pub fn simulated_report(workload: &str, plan: &Plan, reps: &[Repetition]) -> Vec<String> {
    let reps = simulated(reps);
    let per_rep = |f: &dyn Fn(&Repetition) -> String| -> String {
        reps.iter().map(f).collect::<Vec<_>>().join(" ")
    };
    let measures = |metric: &str| {
        END_TO_END
            .iter()
            .any(|m| m.name == metric && m.home == Some(workload))
    };
    let mut lines = Vec::new();
    if measures("fig7_hmean") {
        let speedups: Vec<_> = reps
            .iter()
            .map(|r| staggered_speedups(plan, &r.cells))
            .collect();
        for (i, prog) in plan.programs.iter().enumerate() {
            let band = fidelity::paper_band(&prog.name).expect("Figure 7 has the registry's ten");
            let hits = speedups
                .iter()
                .filter(|s| fidelity::classify(s[i].1) == Some(band))
                .count();
            let per_seed: Vec<String> = speedups.iter().map(|s| format!("{:.4}", s[i].1)).collect();
            lines.push(format!(
                "speedup {:<10} {}  paper band {band:?}, in band {hits}/{}",
                prog.name,
                per_seed.join(" "),
                reps.len()
            ));
        }
        lines.push(format!(
            "hmean      {}  paper {}",
            per_rep(&|r| format!("{:.4}", simulated_metric("fig7_hmean", plan, &r.cells))),
            fidelity::FIG7_HMEAN
        ));
    }
    if measures("serve_slo_rate") {
        for (spec, index) in plan.cells.iter().zip(0..) {
            lines.push(format!(
                "p99 {:<18} {:<9} {}",
                plan.programs[spec.program].name,
                mode_key(spec.mode),
                per_rep(&|r| r.cells[index]
                    .observed
                    .map_or("-".to_string(), |o| o.latency.p99.to_string()))
            ));
        }
        lines.push(format!(
            "slo_rate   {}  (p99 <= {} cycles)",
            per_rep(&|r| format!("{:.1}", simulated_metric("serve_slo_rate", plan, &r.cells))),
            fidelity::SERVE_SLO_CYCLES
        ));
    }
    lines
}

fn mode_key(mode: Mode) -> &'static str {
    match mode {
        Mode::Htm => "htm",
        Mode::AddrOnly => "addronly",
        Mode::StaggeredSw => "staggered-sw",
        Mode::Staggered => "staggered",
    }
}

/// Per-layer host seconds of one traced pass (a preparation or a
/// repetition), keyed by metric name: each span name's summed self time
/// as `<name>_s`, and the `tm-interp.run` span split by core count and by
/// mode of its cell.
pub fn layer_seconds(spans: &[Span], plan: &Plan) -> BTreeMap<String, f64> {
    let mut by: BTreeMap<String, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let secs = ns as f64 * 1e-9;
        *by.entry(format!("{}_s", s.name)).or_default() += secs;
        if s.name == "tm-interp.run" {
            let cell = &plan.cells[s.cell.expect("layer spans carry their cell") as usize];
            *by.entry(format!("tm-interp.run_s.c{}", cell.cores))
                .or_default() += secs;
            *by.entry(format!("tm-interp.run_s.{}", mode_key(cell.mode)))
                .or_default() += secs;
        }
    }
    by
}

/// Exact counts over the cells of one repetition that `keep` selects.
#[derive(Debug, Default, Clone, PartialEq)]
struct Totals {
    insts: f64,
    gated_ops: f64,
    sched_calls: f64,
    sched_stale: f64,
    commits: f64,
    aborts: f64,
    wasted_cycles: f64,
    tx_cycles: f64,
    sim_cycles: f64,
    core_cycles: f64,
    lock_wait_cycles: f64,
    locks_acquired: f64,
    lock_timeouts: f64,
    alps_executed: f64,
    contention_aborts: f64,
    anchor_correct: f64,
    events: f64,
    rings_full: f64,
}

fn totals(plan: &Plan, cells: &[CellOut], keep: impl Fn(&CellSpec) -> bool) -> Totals {
    let mut t = Totals::default();
    for (spec, cell) in plan.cells.iter().zip(cells) {
        let Some(out) = cell.out.as_ref().filter(|_| keep(spec)) else {
            continue;
        };
        let a = out.sim.aggregate();
        t.insts += out.exec.insts as f64;
        t.gated_ops += a.gated_ops as f64;
        t.sched_calls += out.sched.schedule_calls as f64;
        t.sched_stale += out.sched.stale_refreshes as f64;
        t.commits += (a.commits + a.irrevocable_commits) as f64;
        t.aborts += a.aborts() as f64;
        t.wasted_cycles += a.wasted_tx_cycles as f64;
        t.tx_cycles += (a.wasted_tx_cycles + a.useful_tx_cycles + a.irrevocable_cycles) as f64;
        t.sim_cycles += out.sim.exec_cycles as f64;
        t.core_cycles += out.sim.cores.iter().map(|c| c.total_cycles).sum::<u64>() as f64;
        t.lock_wait_cycles += a.lock_wait_cycles as f64;
        t.locks_acquired += out.rt.locks_acquired as f64;
        t.lock_timeouts += out.rt.lock_timeouts as f64;
        t.alps_executed += out.rt.alps_executed as f64;
        t.contention_aborts += out.rt.contention_aborts as f64;
        t.anchor_correct += out.rt.anchor_correct as f64;
        if let Some(obs) = cell.observed {
            t.events += obs.events as f64;
            t.rings_full += obs.rings_full as f64;
        }
    }
    t
}

/// Measurements of a traced run that are not spans of a repetition.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Extras {
    /// Static anchors and analysed loads/stores over the plan's programs.
    pub anchors: usize,
    pub loads_stores: usize,
    /// `serve64` only; 0 elsewhere.
    pub obs_overhead_ratio: f64,
    /// `quick50` only; 0 elsewhere.
    pub sweep_cold_s: f64,
    pub sweep_warm_s: f64,
    pub sweep_warm_hits: usize,
}

/// Every per-layer metric for one traced run: `*_s` are medians over the
/// traced passes of summed span self time, `ns_per_*` medians of each
/// pass's time over its own count, and counts come from the first traced
/// repetition (the run's first seed), so they repeat exactly.
pub fn per_layer(
    plan: &Plan,
    prepare_passes: &[BTreeMap<String, f64>],
    traced_passes: &[BTreeMap<String, f64>],
    traced: &[Repetition],
    untraced: &[Repetition],
    extras: &Extras,
) -> Vec<Reading> {
    // A span name occurs in preparation passes or in repetition passes,
    // never both, so the absent side adds 0.
    let median_of = |passes: &[BTreeMap<String, f64>], name: &str| {
        median(
            &passes
                .iter()
                .map(|p| p.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let secs = |name: &str| median_of(prepare_passes, name) + median_of(traced_passes, name);
    let cells = &traced[0].cells;
    let all = totals(plan, cells, |_| true);
    // Host ns of the `key` spans per simulated event, pass by pass: each
    // repetition has its own seed and so its own event count.
    let ns_per = |key: &str, count: fn(&Totals) -> f64, keep: &dyn Fn(&CellSpec) -> bool| {
        let per_pass = traced_passes.iter().zip(traced).map(|(pass, rep)| {
            let secs = pass.get(key).copied().unwrap_or(0.0);
            ratio(secs * 1e9, count(&totals(plan, &rep.cells, keep)))
        });
        median(&per_pass.collect::<Vec<_>>())
    };
    // The runtime's statistics describe the paper's mechanism only in
    // full Staggered mode (AddrOnly, for one, identifies no anchors).
    let runtime = totals(plan, cells, |s| s.mode == Mode::Staggered);
    let med = |f: fn(&Repetition) -> f64, reps: &[Repetition]| {
        median(&reps.iter().map(f).collect::<Vec<_>>())
    };

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "tm-interp.sim_insts" => all.insts,
                "tm-interp.ns_per_sim_inst" => ns_per("tm-interp.run_s", |t| t.insts, &|_| true),
                "tm-interp.insts_per_gated_op" => ratio(all.insts, all.gated_ops),
                "htm-sim.gated_ops" => all.gated_ops,
                "htm-sim.ns_per_gated_op" => ns_per("tm-interp.run_s", |t| t.gated_ops, &|_| true),
                "htm-sim.sched_calls" => all.sched_calls,
                "htm-sim.sched_stale_ratio" => ratio(all.sched_stale, all.sched_calls),
                "htm-sim.ns_per_gated_op.c64" => {
                    ns_per("tm-interp.run_s.c64", |t| t.gated_ops, &|s| s.cores == 64)
                }
                "htm-sim.ns_per_gated_op.c256" => {
                    ns_per("tm-interp.run_s.c256", |t| t.gated_ops, &|s| s.cores == 256)
                }
                "htm-sim.commits" => all.commits,
                "htm-sim.aborts" => all.aborts,
                "htm-sim.commit_ratio" => ratio(all.commits, all.commits + all.aborts),
                "htm-sim.wasted_cycle_ratio" => ratio(all.wasted_cycles, all.tx_cycles),
                "htm-sim.sim_cycles" => all.sim_cycles,
                "stagger-core.locks_acquired" => runtime.locks_acquired,
                "stagger-core.lock_timeouts" => runtime.lock_timeouts,
                "stagger-core.alps_executed" => runtime.alps_executed,
                "stagger-core.anchor_accuracy" => {
                    ratio(runtime.anchor_correct, runtime.contention_aborts)
                }
                "stagger-core.lock_wait_cycle_ratio" => {
                    ratio(runtime.lock_wait_cycles, runtime.core_cycles)
                }
                "htm-sim.events" => all.events,
                "htm-sim.events_at_capacity" => all.rings_full,
                "htm-sim.obs_overhead_ratio" => extras.obs_overhead_ratio,
                // `compile` repeats the verification and analysis timed
                // beside it; what is left is the pass's own work.
                "stagger-compiler.compile_s" => {
                    (secs(name) - secs("tm-ir.verify_s") - secs("tm-dsa.analyze_s")).max(0.0)
                }
                "stagger-compiler.anchors" => extras.anchors as f64,
                "stagger-compiler.loads_stores" => extras.loads_stores as f64,
                "stagger-bench.pool_overhead_s" => secs("repetition_s"),
                "stagger-bench.sweep_cold_s" => extras.sweep_cold_s,
                "stagger-bench.sweep_warm_s" => extras.sweep_warm_s,
                "stagger-bench.sweep_warm_hits" => extras.sweep_warm_hits as f64,
                "stagger-bench.cpu_s" => med(|r| r.cpu_s, untraced),
                "stagger-bench.wall_s" => med(|r| r.wall_s, untraced),
                "stagger-bench.trace_overhead_ratio" => {
                    ratio(med(|r| r.cpu_s, traced), med(|r| r.cpu_s, untraced))
                }
                span_seconds => secs(span_seconds),
            };
            Reading { name, unit, value }
        })
        .collect()
}

/// Share of a traced repetition that the named layer spans account for;
/// the rest is the `repetition` and `cell` containers' own time.
pub fn layer_coverage(spans: &[Span]) -> f64 {
    let (mut total, mut containers) = (0u64, 0u64);
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        total += ns;
        if matches!(s.name, "repetition" | "cell") {
            containers += ns;
        }
    }
    ratio((total - containers) as f64, total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::plan;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn quiet_quartile_takes_the_better_side_and_never_leaves_the_samples() {
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quiet_quartile(&v, Lower), 2.0);
        assert_eq!(quiet_quartile(&v, Higher), 6.0);
        assert_eq!(quiet_quartile(&[10.0, 20.0], Lower), 10.0);
        assert_eq!(quiet_quartile(&[10.0, 20.0], Higher), 20.0);
        assert_eq!(quiet_quartile(&[3.5], Lower), 3.5);
    }

    #[test]
    fn layer_seconds_splits_the_run_span_by_cores_and_mode() {
        let p = plan("scale").unwrap();
        let span = |id, parent, name, cell, start_ns, end_ns| Span {
            id,
            parent,
            name,
            cell,
            start_ns,
            end_ns,
        };
        let s = 1_000_000_000;
        let spans = [
            span(0, None, "repetition", None, 0, 10 * s),
            span(1, Some(0), "cell", Some(0), 0, 4 * s),
            span(2, Some(1), "tm-interp.run", Some(0), s, 4 * s),
            span(3, Some(0), "cell", Some(3), 4 * s, 9 * s),
            span(4, Some(3), "tm-interp.run", Some(3), 4 * s, 8 * s),
        ];
        let by = layer_seconds(&spans, &p);
        assert_eq!(by["tm-interp.run_s"], 7.0);
        assert_eq!(by["tm-interp.run_s.c64"], 3.0);
        assert_eq!(by["tm-interp.run_s.c256"], 4.0);
        assert_eq!(by["tm-interp.run_s.htm"], 3.0);
        assert_eq!(by["tm-interp.run_s.staggered"], 4.0);
        assert_eq!(by["cell_s"], 2.0);
        assert_eq!(by["repetition_s"], 1.0);
        // 7 of 10 seconds are inside a named layer.
        assert!((layer_coverage(&spans) - 0.7).abs() < 1e-12);
    }
}

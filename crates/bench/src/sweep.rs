//! Declarative ablation-sweep engine over a unified, serializable
//! experiment spec.
//!
//! The paper's argument rests on sensitivity knobs the simulator exposes
//! but the hand-written exhibits never swept systematically: the 12-bit
//! conflicting-PC tags of Section 4, the advisory-lock timeout and Polite
//! backoff of Section 2, eager vs lazy conflict resolution. This module
//! turns each question into data:
//!
//! * [`RunSpec`] — one simulator run, fully named: workload, mode,
//!   threads, seed, plus every machine and runtime knob. Serializes to a
//!   canonical `key=value` text (see [`RunSpec::canon`]) that parses back
//!   to an identical run, and hashes to a stable [`RunSpec::run_key`].
//! * [`SweepSpec`] — a base [`RunSpec`] plus [`Axis`] lists that
//!   grid-expand into cells (cartesian product, last axis fastest).
//! * [`run_sweep`] — executes the missing cells through the deterministic
//!   [`crate::jobs::run_jobs`] pool (one [`PreparedWorkload`] per distinct
//!   workload, shared across all its cells) and persists each completed
//!   cell under `<dir>/<sweep>/cells/<run_key>.cell`. A re-run — after an
//!   interrupt, or with new axis values — recomputes only missing cells,
//!   and the final tables are byte-identical to an uninterrupted run
//!   because cells persist only simulated (deterministic) quantities.
//! * [`sweep_json`] / [`sweep_csv`] — deterministic result tables, each
//!   carrying every counter a cell holds ([`CellMetrics::keys`]).
//!
//! The built-in sweeps ([`builtin_sweep`]) are six grids, among them the
//! paper's two sensitivity curves: PC-tag width (`pc-tags`) and
//! advisory-lock timeout × backoff (`lock-tuning`). The `sweep` binary
//! drives them.

use crate::{jobs::run_jobs, json_str, CommonOpts, Exhibit};
use htm_sim::{CoreStats, MachineConfig};
use stagger_core::{Mode, RtStats, RuntimeConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use workloads::{BenchResult, PreparedWorkload};

/// One fully named simulator run: the single way harnesses describe a
/// configuration. `machine.n_cores` is carried by `threads` and
/// `runtime.mode` by `mode`; the embedded configs' copies of those two
/// fields are overwritten at [`RunSpec::machine_config`] /
/// [`RunSpec::runtime_config`] time.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload name, resolved through `workloads::workload_by_name`.
    pub workload: String,
    /// Use the smoke-scale (`--quick`) variant of the workload.
    pub quick: bool,
    /// Execution mode.
    pub mode: Mode,
    /// Simulated cores.
    pub threads: usize,
    /// Base workload seed.
    pub seed: u64,
    /// Machine knobs (`machine.*` keys).
    pub machine: MachineConfig,
    /// Runtime knobs (`runtime.*` keys).
    pub runtime: RuntimeConfig,
}

impl RunSpec {
    /// A spec with default machine and runtime knobs.
    pub fn new(workload: &str, mode: Mode, threads: usize, seed: u64) -> RunSpec {
        RunSpec {
            workload: workload.to_string(),
            quick: false,
            mode,
            threads,
            seed,
            machine: MachineConfig::default(),
            runtime: RuntimeConfig::with_mode(mode),
        }
    }

    /// A spec taking threads, seed, quick and the fallback pin from the
    /// harness's common flags.
    pub fn from_opts(opts: &CommonOpts, workload: &str, mode: Mode) -> RunSpec {
        let mut s = RunSpec::new(workload, mode, opts.threads, opts.seed);
        s.quick = opts.quick;
        if let Some(fb) = opts.fallback {
            s.machine = s.machine.fallback(fb);
        }
        s
    }

    /// The machine configuration this spec names (`n_cores` = `threads`).
    pub fn machine_config(&self) -> MachineConfig {
        let mut m = self.machine.clone();
        m.n_cores = self.threads;
        m
    }

    /// The runtime configuration this spec names (`mode` = `mode`).
    pub fn runtime_config(&self) -> RuntimeConfig {
        let mut r = self.runtime.clone();
        r.mode = self.mode;
        r
    }

    /// Set one field by key: a top-level key (`workload`, `quick`,
    /// `mode`, `threads`, `seed`) or a prefixed knob (`machine.*`,
    /// `runtime.*`). This is how sweep axes perturb the base spec.
    pub fn set_field(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "workload" => self.workload = value.to_string(),
            "quick" => {
                self.quick = value
                    .parse()
                    .map_err(|_| format!("quick: invalid value '{value}'"))?;
            }
            "mode" => {
                self.mode =
                    Mode::parse(value).ok_or_else(|| format!("mode: invalid value '{value}'"))?;
            }
            "threads" => {
                self.threads = value
                    .parse()
                    .ok()
                    .filter(|n| MachineConfig::CORES.contains(n))
                    .ok_or_else(|| {
                        format!(
                            "threads: invalid value '{value}' (must be in {:?})",
                            MachineConfig::CORES
                        )
                    })?;
            }
            "seed" => {
                self.seed = value
                    .parse()
                    .map_err(|_| format!("seed: invalid value '{value}'"))?;
            }
            "machine.n_cores" => {
                return Err("machine.n_cores: set the top-level 'threads' field".to_string());
            }
            // Synthetic sweep-axis key: one protocol-matrix value expands
            // into a bundle of real machine-field mutations. It never
            // appears in canon() — cells serialize only the underlying
            // fields, so run keys stay spelling-independent.
            "variant" => match value {
                "irrevocable" => {
                    self.machine.set_kv("fallback", "irrevocable")?;
                    self.machine.set_kv("max_read_lines", "0")?;
                    self.machine.set_kv("max_write_lines", "0")?;
                }
                "hybrid-stm" | "lazy-subscription" | "lazy-subscription-safe" => {
                    self.machine.set_kv("fallback", value)?;
                    self.machine.set_kv("max_read_lines", "0")?;
                    self.machine.set_kv("max_write_lines", "0")?;
                }
                "bounded-set" => {
                    self.machine.set_kv("fallback", "irrevocable")?;
                    self.machine.set_kv("max_read_lines", "16")?;
                    self.machine.set_kv("max_write_lines", "8")?;
                }
                other => return Err(format!("variant: unknown value '{other}'")),
            },
            _ => {
                if let Some(k) = key.strip_prefix("machine.") {
                    self.machine.set_kv(k, value)?;
                } else if let Some(k) = key.strip_prefix("runtime.") {
                    self.runtime.set_kv(k, value)?;
                } else {
                    return Err(format!("{key}: unknown spec key"));
                }
            }
        }
        Ok(())
    }

    /// Canonical serialization: one `key=value` per line, in a fixed
    /// order (top-level fields, then `machine.*`, then `runtime.*`).
    /// [`RunSpec::parse`] inverts it; [`RunSpec::run_key`] hashes it.
    pub fn canon(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("workload={}\n", self.workload));
        s.push_str(&format!("quick={}\n", self.quick));
        s.push_str(&format!("mode={}\n", self.mode.name()));
        s.push_str(&format!("threads={}\n", self.threads));
        s.push_str(&format!("seed={}\n", self.seed));
        for (k, v) in self.machine.to_kv() {
            if k == "n_cores" {
                continue; // carried by `threads`
            }
            s.push_str(&format!("machine.{k}={v}\n"));
        }
        for (k, v) in self.runtime.to_kv() {
            s.push_str(&format!("runtime.{k}={v}\n"));
        }
        s
    }

    /// Parse a spec from its [`RunSpec::canon`] text. Unknown keys and
    /// malformed lines are errors; omitted keys keep their defaults.
    pub fn parse(text: &str) -> Result<RunSpec, String> {
        let mut spec = RunSpec::new("", Mode::Htm, 16, 2015);
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key=value, got '{line}'", ln + 1))?;
            spec.set_field(key.trim(), value.trim())?;
        }
        if spec.workload.is_empty() {
            return Err("spec has no workload".to_string());
        }
        Ok(spec)
    }

    /// Content-hashed run key: FNV-1a 64 over the canonical
    /// serialization, as 16 hex digits. Identical specs — not identical
    /// spellings — share a key, because [`RunSpec::canon`] is canonical.
    pub fn run_key(&self) -> String {
        format!("{:016x}", fnv1a64(self.canon().as_bytes()))
    }

    /// Execute this spec against an already prepared workload (the
    /// caller guarantees `p` is the workload the spec names).
    pub fn run(&self, p: &PreparedWorkload) -> BenchResult {
        p.run_cfg(self.seed, self.machine_config(), self.runtime_config())
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = crate::digest::Fnv::new();
    h.bytes(bytes);
    h.0
}

/// One sweep dimension: every cell takes each `values` entry for `key`
/// (any key [`RunSpec::set_field`] accepts).
#[derive(Debug, Clone)]
pub struct Axis {
    pub key: String,
    pub values: Vec<String>,
}

impl Axis {
    pub fn new(key: &str, values: &[&str]) -> Axis {
        Axis {
            key: key.to_string(),
            values: values.iter().map(|v| v.to_string()).collect(),
        }
    }
}

/// A declarative parameter grid: `base` perturbed by the cartesian
/// product of `axes` (last axis fastest, like nested loops).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name — the results directory and table file stem.
    pub name: String,
    pub base: RunSpec,
    pub axes: Vec<Axis>,
}

/// One grid cell: the expanded spec plus its axis coordinates.
#[derive(Debug, Clone)]
pub struct GridCell {
    pub spec: RunSpec,
    /// `(axis key, value)` in axis order — the cell's grid coordinates.
    pub coords: Vec<(String, String)>,
}

impl SweepSpec {
    /// Grid-expand into cells. Errors if an axis key or value does not
    /// apply to the base spec, or an axis is empty.
    pub fn cells(&self) -> Result<Vec<GridCell>, String> {
        for ax in &self.axes {
            if ax.values.is_empty() {
                return Err(format!("sweep {}: axis '{}' is empty", self.name, ax.key));
            }
        }
        let mut cells = vec![GridCell {
            spec: self.base.clone(),
            coords: Vec::new(),
        }];
        for ax in &self.axes {
            let mut next = Vec::with_capacity(cells.len() * ax.values.len());
            for cell in &cells {
                for v in &ax.values {
                    let mut spec = cell.spec.clone();
                    spec.set_field(&ax.key, v)
                        .map_err(|e| format!("sweep {}: axis {}: {e}", self.name, ax.key))?;
                    let mut coords = cell.coords.clone();
                    coords.push((ax.key.clone(), v.clone()));
                    next.push(GridCell { spec, coords });
                }
            }
            cells = next;
        }
        Ok(cells)
    }
}

/// The deterministic quantities persisted per completed cell — raw
/// simulated counters only (no host timing), so a resumed sweep emits
/// byte-identical tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellMetrics {
    /// Execution time: the latest core clock.
    pub sim_cycles: u64,
    /// Interpreted instructions, all cores.
    pub sim_insts: u64,
    /// The cores' counters, aggregated (`SimStats::aggregate`).
    pub core: CoreStats,
    /// The runtime's counters; its histograms are not kept.
    pub rt: RtStats,
}

impl CellMetrics {
    pub fn from_result(r: &BenchResult) -> CellMetrics {
        let mut m = CellMetrics {
            sim_cycles: r.cycles(),
            sim_insts: r.sim_insts(),
            core: r.out.sim.aggregate(),
            rt: RtStats::default(),
        };
        for (v, x) in m.rt.values_mut().into_iter().zip(r.out.rt.values()) {
            *v = x;
        }
        m
    }

    /// The counters' names: `sim_cycles`, `sim_insts`, then
    /// `CoreStats::KEYS` and `RtStats::KEYS`. The one field list behind
    /// the cell text, both result tables and the `--json` run records.
    pub fn keys() -> impl Iterator<Item = &'static str> {
        ["sim_cycles", "sim_insts"]
            .into_iter()
            .chain(CoreStats::KEYS)
            .chain(RtStats::KEYS)
    }

    /// Each counter of [`Self::keys`] with its value.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let values = [self.sim_cycles, self.sim_insts]
            .into_iter()
            .chain(self.core.values())
            .chain(self.rt.values());
        Self::keys().zip(values)
    }

    /// The counters of [`Self::keys`], in order, to set.
    fn values_mut(&mut self) -> impl Iterator<Item = &mut u64> + '_ {
        [&mut self.sim_cycles, &mut self.sim_insts]
            .into_iter()
            .chain(self.core.values_mut())
            .chain(self.rt.values_mut())
    }

    fn from_map(m: &BTreeMap<&str, u64>) -> Result<CellMetrics, String> {
        let mut cell = CellMetrics::default();
        for (k, v) in Self::keys().zip(cell.values_mut()) {
            *v = *m.get(k).ok_or_else(|| format!("cell missing result.{k}"))?;
        }
        Ok(cell)
    }
}

/// A persisted (or freshly computed) cell: its spec plus the metrics.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub spec: RunSpec,
    pub metrics: CellMetrics,
}

impl CellResult {
    /// The on-disk cell format: the spec's canonical text followed by
    /// `result.<counter>=<n>` lines.
    pub fn to_text(&self) -> String {
        let mut s = String::from("# sweep cell v1\n");
        s.push_str(&self.spec.canon());
        for (k, v) in self.metrics.counters() {
            s.push_str(&format!("result.{k}={v}\n"));
        }
        s
    }

    /// Parse a persisted cell, validating that its spec hashes to
    /// `expect_key` (a mismatch means a corrupt or renamed cache file).
    pub fn parse(text: &str, expect_key: &str) -> Result<CellResult, String> {
        let mut spec_text = String::new();
        let mut results: BTreeMap<&str, u64> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("result.") {
                let (k, v) = rest
                    .split_once('=')
                    .ok_or_else(|| format!("malformed result line '{line}'"))?;
                let k = CellMetrics::keys()
                    .find(|&kk| kk == k.trim())
                    .ok_or_else(|| format!("unknown result counter '{k}'"))?;
                let v = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("result.{k}: invalid value '{v}'"))?;
                results.insert(k, v);
            } else {
                spec_text.push_str(line);
                spec_text.push('\n');
            }
        }
        let spec = RunSpec::parse(&spec_text)?;
        if spec.run_key() != expect_key {
            return Err(format!(
                "cell spec hashes to {}, expected {expect_key} (corrupt cache?)",
                spec.run_key()
            ));
        }
        let metrics = CellMetrics::from_map(&results)?;
        Ok(CellResult { spec, metrics })
    }
}

/// What one [`run_sweep`] invocation did.
pub struct SweepOutcome {
    /// Grid-aligned results; `None` for cells still missing (only when
    /// `max_cells` cut the run short).
    pub cells: Vec<Option<CellResult>>,
    /// Cells loaded from the cache.
    pub cached: usize,
    /// Cells computed (and persisted) by this invocation.
    pub computed: usize,
    /// Cells still missing.
    pub remaining: usize,
}

impl SweepOutcome {
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// The complete, grid-ordered results (panics if incomplete).
    pub fn complete_cells(&self) -> Vec<&CellResult> {
        self.cells
            .iter()
            .map(|c| c.as_ref().expect("sweep incomplete"))
            .collect()
    }
}

/// The cell-cache directory of a sweep under `dir` (the sweep root,
/// conventionally `results/sweeps`).
pub fn cell_dir(dir: &Path, sweep: &str) -> PathBuf {
    dir.join(sweep).join("cells")
}

/// Execute `spec`, reusing every cell already persisted under `dir` and
/// computing at most `max_cells` missing cells (`None` = all) through the
/// job pool. Each distinct workload is compiled once and shared across
/// its cells; freshly computed cells are recorded in `exhibit` (cached
/// cells are not — they cost no simulation time). Cell files are written
/// atomically (tmp + rename), so a killed sweep never leaves a partial
/// cache entry; a cell file that does not parse (corrupt, or written
/// before a counter was added) is recomputed and rewritten. A cell that
/// cannot be saved fails the sweep with an error naming its path.
pub fn run_sweep(
    spec: &SweepSpec,
    dir: &Path,
    jobs: usize,
    max_cells: Option<usize>,
    exhibit: Option<&Exhibit>,
) -> Result<SweepOutcome, String> {
    let grid = spec.cells()?;
    let cache = cell_dir(dir, &spec.name);
    std::fs::create_dir_all(&cache)
        .map_err(|e| format!("cannot create {}: {e}", cache.display()))?;

    // Load what the cache already has; collect the missing cell indices.
    let mut cells: Vec<Option<CellResult>> = Vec::with_capacity(grid.len());
    let mut missing: Vec<usize> = Vec::new();
    for (i, cell) in grid.iter().enumerate() {
        let key = cell.spec.run_key();
        let path = cache.join(format!("{key}.cell"));
        let parsed = std::fs::read_to_string(&path).ok().and_then(|text| {
            match CellResult::parse(&text, &key) {
                Ok(res) => Some(res),
                Err(e) => {
                    eprintln!("sweep: recomputing {}: {e}", path.display());
                    None
                }
            }
        });
        if parsed.is_none() {
            missing.push(i);
        }
        cells.push(parsed);
    }
    let cached = grid.len() - missing.len();

    // Honor the interruption budget: compute only the first `max_cells`
    // missing cells this invocation.
    let budget = max_cells.unwrap_or(missing.len()).min(missing.len());
    let to_run: Vec<usize> = missing[..budget].to_vec();
    let remaining = missing.len() - budget;

    // One PreparedWorkload per distinct (workload, quick), shared across
    // all that workload's cells.
    let mut names: Vec<(String, bool)> = to_run
        .iter()
        .map(|&i| (grid[i].spec.workload.clone(), grid[i].spec.quick))
        .collect();
    names.sort();
    names.dedup();
    let boxes: Vec<Box<dyn workloads::Workload>> = names
        .iter()
        .map(|(name, quick)| {
            workloads::workload_by_name(name, *quick)
                .ok_or_else(|| format!("sweep {}: unknown workload '{name}'", spec.name))
        })
        .collect::<Result<_, _>>()?;
    let prepared: Vec<PreparedWorkload> = run_jobs(
        boxes
            .iter()
            .map(|w| move || PreparedWorkload::new(w.as_ref()))
            .collect(),
        jobs,
    );
    let index_of = |name: &str, quick: bool| -> usize {
        names
            .iter()
            .position(|(n, q)| n == name && *q == quick)
            .expect("prepared above")
    };

    // Run the missing cells through the pool and persist each one.
    let computed: Vec<CellResult> = run_jobs(
        to_run
            .iter()
            .map(|&i| {
                let cell = &grid[i];
                let p = &prepared[index_of(&cell.spec.workload, cell.spec.quick)];
                let cache = &cache;
                move || -> Result<CellResult, String> {
                    let r = cell.spec.run(p);
                    if let Some(ex) = exhibit {
                        ex.record(&r);
                    }
                    let res = CellResult {
                        spec: cell.spec.clone(),
                        metrics: CellMetrics::from_result(&r),
                    };
                    let key = cell.spec.run_key();
                    let tmp = cache.join(format!("{key}.tmp"));
                    let path = cache.join(format!("{key}.cell"));
                    std::fs::write(&tmp, res.to_text())
                        .and_then(|()| std::fs::rename(&tmp, &path))
                        .map_err(|e| format!("cannot persist {}: {e}", path.display()))?;
                    Ok(res)
                }
            })
            .collect(),
        jobs,
    )
    .into_iter()
    .collect::<Result<_, _>>()?;
    for (slot, res) in to_run.iter().zip(computed) {
        cells[*slot] = Some(res);
    }

    Ok(SweepOutcome {
        cells,
        cached,
        computed: budget,
        remaining,
    })
}

/// The metric columns of both tables, in order: every counter of
/// [`CellMetrics::keys`], then the two derived ratios (fixed-format, so
/// the tables stay byte-deterministic).
fn metric_columns(m: &CellMetrics) -> impl Iterator<Item = (&'static str, String)> {
    let derived = [
        ("aborts_per_commit", m.core.aborts_per_commit()),
        ("accuracy", m.rt.accuracy()),
    ];
    m.counters()
        .map(|(k, v)| (k, v.to_string()))
        .chain(derived.map(|(k, x)| (k, format!("{x:.6}"))))
}

/// The deterministic JSON result table of a completed sweep: sweep name,
/// axes, and one entry per cell in grid order (run key, coordinates,
/// workload/mode/threads/seed, then [`metric_columns`]).
pub fn sweep_json(spec: &SweepSpec, grid: &[GridCell], cells: &[&CellResult]) -> String {
    assert_eq!(grid.len(), cells.len());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"sweep\": {},\n", json_str(&spec.name)));
    s.push_str("  \"axes\": [\n");
    for (i, ax) in spec.axes.iter().enumerate() {
        let vals: Vec<String> = ax.values.iter().map(|v| json_str(v)).collect();
        s.push_str(&format!(
            "    {{ \"key\": {}, \"values\": [{}] }}{}\n",
            json_str(&ax.key),
            vals.join(", "),
            if i + 1 < spec.axes.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"cells\": [\n");
    for (i, (cell, res)) in grid.iter().zip(cells).enumerate() {
        let coords: Vec<String> = cell
            .coords
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        s.push_str(&format!(
            "    {{ \"run_key\": {}, \"workload\": {}, \"mode\": {}, \
             \"threads\": {}, \"seed\": {}, \"coords\": {{ {} }}",
            json_str(&res.spec.run_key()),
            json_str(&res.spec.workload),
            json_str(res.spec.mode.name()),
            res.spec.threads,
            res.spec.seed,
            coords.join(", "),
        ));
        for (k, v) in metric_columns(&res.metrics) {
            s.push_str(&format!(", {}: {v}", json_str(k)));
        }
        s.push_str(if i + 1 < grid.len() { " },\n" } else { " }\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The deterministic CSV result table: axis coordinates plus the same
/// per-cell metrics as [`sweep_json`], one row per cell in grid order. An
/// axis over a key that already has a leading column (`workload`, `mode`,
/// `threads`, `seed`) is not written a second time.
pub fn sweep_csv(spec: &SweepSpec, grid: &[GridCell], cells: &[&CellResult]) -> String {
    assert_eq!(grid.len(), cells.len());
    const LEADING: [&str; 4] = ["workload", "mode", "threads", "seed"];
    let own_column = |key: &String| !LEADING.contains(&key.as_str());
    let mut s = String::from("run_key,workload,mode,threads,seed");
    for ax in spec.axes.iter().filter(|ax| own_column(&ax.key)) {
        s.push_str(&format!(",{}", ax.key));
    }
    for (k, _) in metric_columns(&CellMetrics::default()) {
        s.push_str(&format!(",{k}"));
    }
    s.push('\n');
    for (cell, res) in grid.iter().zip(cells) {
        s.push_str(&format!(
            "{},{},{},{},{}",
            res.spec.run_key(),
            res.spec.workload,
            res.spec.mode.name(),
            res.spec.threads,
            res.spec.seed
        ));
        for (_, v) in cell.coords.iter().filter(|(k, _)| own_column(k)) {
            s.push_str(&format!(",{v}"));
        }
        for (_, v) in metric_columns(&res.metrics) {
            s.push_str(&format!(",{v}"));
        }
        s.push('\n');
    }
    s
}

/// Write the JSON and CSV tables of a completed sweep under `dir`,
/// returning their paths.
pub fn write_tables(
    spec: &SweepSpec,
    grid: &[GridCell],
    cells: &[&CellResult],
    dir: &Path,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let base = dir.join(&spec.name);
    std::fs::create_dir_all(&base)?;
    let json_path = base.join(format!("{}.json", spec.name));
    let csv_path = base.join(format!("{}.csv", spec.name));
    std::fs::write(&json_path, sweep_json(spec, grid, cells))?;
    std::fs::write(&csv_path, sweep_csv(spec, grid, cells))?;
    Ok((json_path, csv_path))
}

/// Names of the built-in sweeps, in presentation order. The `sweep`
/// binary runs all but the last, `smoke`, by default.
pub fn builtin_sweep_names() -> &'static [&'static str] {
    &[
        "pc-tags",
        "lock-tuning",
        "scaling",
        "serve",
        "protocols",
        "smoke",
    ]
}

/// The six built-in sweeps:
///
/// * `pc-tags` — conflicting-PC tag width (`machine.pc_tag_bits` ∈
///   {4, 8, 12, 16}) × mode (HTM baseline vs Staggered) on the two
///   high-contention workloads; the paper argues 12 bits suffice
///   (Section 4), so accuracy and speedup should degrade only below 12.
/// * `lock-tuning` — advisory-lock acquire timeout × Polite backoff base
///   (`runtime.lock_timeout` × `runtime.backoff_base`) on `list-hi`, the
///   liveness/serialization trade-off of Section 2.
/// * `scaling` — core count (`threads` ∈ {16, 32, 64, 128, 256}) × mode
///   on the two high-contention workloads: how contention metrics evolve
///   past the old 32-core ownership-mask boundary (the `scaling` binary
///   reports the host-side scheduler economics of the same grid).
/// * `serve` — the serving scenario: offered load (the `workload` axis
///   walks a `serve-flash-i<N>` interarrival ladder, open loop) × mode ×
///   core count. Contention metrics of the same grid the `serve` binary
///   reports latency percentiles for.
/// * `protocols` — the protocol matrix: every workload × {HTM, Staggered}
///   × execution variant (`irrevocable` baseline, `hybrid-stm` software
///   fallback, `lazy-subscription-safe` hardware commit validation,
///   `bounded-set` read/write-set-limited HTM). The deliberately unsafe
///   `lazy-subscription` variant is excluded: its torn commits would trip
///   workload validation (it lives in the regression tests instead).
/// * `smoke` — mode on `ssca2`: two cells, small enough for CI to
///   exercise the cell cache and resume in seconds.
pub fn builtin_sweep(name: &str, opts: &CommonOpts) -> Option<SweepSpec> {
    match name {
        "pc-tags" => Some(SweepSpec {
            name: "pc-tags".to_string(),
            base: RunSpec::from_opts(opts, "list-hi", Mode::Htm),
            axes: vec![
                Axis::new("workload", &["list-hi", "memcached"]),
                Axis::new("mode", &["HTM", "Staggered"]),
                Axis::new("machine.pc_tag_bits", &["4", "8", "12", "16"]),
            ],
        }),
        "lock-tuning" => {
            let mut base = RunSpec::from_opts(opts, "list-hi", Mode::Staggered);
            // Activate the policy readily so the lock path is exercised
            // (the same setting the hand-written timeout ablation used).
            base.runtime.min_conflict_rate = 0.3;
            Some(SweepSpec {
                name: "lock-tuning".to_string(),
                base,
                axes: vec![
                    Axis::new(
                        "runtime.lock_timeout",
                        &["500", "2000", "10000", "50000", "200000"],
                    ),
                    Axis::new("runtime.backoff_base", &["5", "25", "100"]),
                ],
            })
        }
        "scaling" => Some(SweepSpec {
            name: "scaling".to_string(),
            base: RunSpec::from_opts(opts, "list-hi", Mode::Htm),
            axes: vec![
                Axis::new("workload", &["list-hi", "memcached"]),
                Axis::new("mode", &["HTM", "Staggered"]),
                Axis::new("threads", &["16", "32", "64", "128", "256"]),
            ],
        }),
        "serve" => Some(SweepSpec {
            name: "serve".to_string(),
            base: RunSpec::from_opts(opts, "serve-flash-i48000", Mode::Htm),
            axes: vec![
                Axis::new(
                    "workload",
                    &[
                        "serve-flash-i48000",
                        "serve-flash-i36000",
                        "serve-flash-i24000",
                        "serve-flash-i8000",
                    ],
                ),
                Axis::new("mode", &["HTM", "Staggered"]),
                Axis::new("threads", &["16", "64"]),
            ],
        }),
        "protocols" => Some(SweepSpec {
            name: "protocols".to_string(),
            base: RunSpec::from_opts(opts, "genome", Mode::Htm),
            axes: vec![
                Axis::new(
                    "workload",
                    &[
                        "genome",
                        "intruder",
                        "kmeans",
                        "labyrinth",
                        "ssca2",
                        "vacation",
                        "list-lo",
                        "list-hi",
                        "tsp",
                        "memcached",
                    ],
                ),
                Axis::new("mode", &["HTM", "Staggered"]),
                Axis::new(
                    "variant",
                    &[
                        "irrevocable",
                        "hybrid-stm",
                        "lazy-subscription-safe",
                        "bounded-set",
                    ],
                ),
            ],
        }),
        "smoke" => Some(SweepSpec {
            name: "smoke".to_string(),
            base: RunSpec::from_opts(opts, "ssca2", Mode::Htm),
            axes: vec![Axis::new("mode", &["HTM", "Staggered"])],
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_round_trips() {
        let mut spec = RunSpec::new("list-hi", Mode::Staggered, 8, 42);
        spec.quick = true;
        spec.machine = spec.machine.pc_tag_bits(6).lazy();
        spec.runtime.lock_timeout = 4321;
        spec.runtime.min_conflict_rate = 0.3;
        let text = spec.canon();
        let back = RunSpec::parse(&text).unwrap();
        assert_eq!(back.canon(), text);
        assert_eq!(back.run_key(), spec.run_key());
        assert_eq!(back.mode, Mode::Staggered);
        assert_eq!(back.machine.pc_tag_bits, 6);
        assert_eq!(back.runtime.lock_timeout, 4321);
    }

    #[test]
    fn run_key_distinguishes_knobs() {
        let a = RunSpec::new("list-hi", Mode::Htm, 8, 42);
        let mut b = a.clone();
        b.set_field("machine.pc_tag_bits", "4").unwrap();
        assert_ne!(a.run_key(), b.run_key());
        let mut c = a.clone();
        c.set_field("runtime.lock_timeout", "999").unwrap();
        assert_ne!(a.run_key(), c.run_key());
        assert_eq!(a.run_key(), a.clone().run_key());
    }

    #[test]
    fn spec_rejects_bad_fields() {
        let mut s = RunSpec::new("list-hi", Mode::Htm, 8, 42);
        assert!(s.set_field("machine.n_cores", "4").is_err());
        assert!(s.set_field("mystery", "1").is_err());
        assert!(s.set_field("mode", "psychic").is_err());
        // A core count the machine cannot build is an error here, not a
        // panic inside a pool worker later.
        assert!(s.set_field("threads", "0").is_err());
        assert!(s.set_field("threads", "257").is_err());
        assert_eq!(s.threads, 8);
        assert!(RunSpec::parse("no equals sign").is_err());
        assert!(RunSpec::parse("quick=false\n").is_err(), "missing workload");
        // Knobs of removed drivers are errors, not silently ignored.
        assert!(RunSpec::parse("workload=list-hi\nmachine.host_threads=2\n").is_err());
        assert!(RunSpec::parse("workload=list-hi\nruntime.lock_spin=0\n").is_err());
        // The multi-lock budget went with the extension: one lock per
        // transaction, as in the paper.
        assert!(RunSpec::parse("workload=list-hi\nruntime.max_locks_per_txn=2\n").is_err());
    }

    #[test]
    fn cells_recorded_with_removed_keys_fail_closed() {
        // The spec text of one pc-tags cell as committed before each key
        // left the spec; hashing to that cell's file name shows it is that
        // text byte for byte. None parses, and none is found.
        // Those texts predate serializing the default fallback and set
        // bounds, so their three lines come out too.
        let mut now = RunSpec::new("list-hi", Mode::Htm, 16, 2015);
        now.quick = true;
        now.machine = now.machine.pc_tag_bits(4);
        let without_defaults = now.canon().replace(
            "machine.fallback=irrevocable\nmachine.max_read_lines=0\nmachine.max_write_lines=0\n",
            "",
        );
        assert_ne!(without_defaults, now.canon());
        let with_lock_budget = without_defaults.replace(
            "runtime.sw_alp_overhead=12\n",
            "runtime.sw_alp_overhead=12\nruntime.max_locks_per_txn=1\n",
        );
        let with_scheduler = with_lock_budget.replace(
            "runtime.pc_thr=",
            "machine.scheduler=cooperative\nruntime.pc_thr=",
        );
        let with_trace = with_scheduler.replace(
            "machine.record_events=",
            "machine.record_trace=false\nmachine.record_events=",
        );
        for (old, old_key, err) in [
            (
                with_scheduler,
                "b1125f0caddcaf5c",
                "machine.scheduler: unknown key",
            ),
            (
                with_trace,
                "00bf75a1e9fc95b8",
                "machine.record_trace: unknown key",
            ),
            (
                with_lock_budget,
                "7d491f87a42a70be",
                "runtime.max_locks_per_txn: unknown key",
            ),
        ] {
            assert_eq!(format!("{:016x}", fnv1a64(old.as_bytes())), old_key);
            assert_ne!(now.run_key(), old_key);
            assert_eq!(RunSpec::parse(&old).unwrap_err(), err);
            let cell = format!("# sweep cell v1\n{old}result.sim_cycles=1271013\n");
            assert_eq!(CellResult::parse(&cell, old_key).unwrap_err(), err);
        }
    }

    #[test]
    fn grid_expansion_order_and_count() {
        let spec = SweepSpec {
            name: "t".to_string(),
            base: RunSpec::new("list-hi", Mode::Htm, 4, 1),
            axes: vec![
                Axis::new("mode", &["HTM", "Staggered"]),
                Axis::new("machine.pc_tag_bits", &["4", "12"]),
            ],
        };
        let cells = spec.cells().unwrap();
        assert_eq!(cells.len(), 4);
        // Last axis fastest.
        assert_eq!(cells[0].spec.mode, Mode::Htm);
        assert_eq!(cells[0].spec.machine.pc_tag_bits, 4);
        assert_eq!(cells[1].spec.mode, Mode::Htm);
        assert_eq!(cells[1].spec.machine.pc_tag_bits, 12);
        assert_eq!(cells[2].spec.mode, Mode::Staggered);
        assert_eq!(
            cells[3].coords,
            vec![
                ("mode".to_string(), "Staggered".to_string()),
                ("machine.pc_tag_bits".to_string(), "12".to_string())
            ]
        );
        // All keys distinct.
        let mut keys: Vec<String> = cells.iter().map(|c| c.spec.run_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn cell_text_round_trips() {
        let spec = RunSpec::new("ssca2", Mode::Staggered, 4, 7);
        let mut metrics = CellMetrics::default();
        for (i, v) in metrics.values_mut().enumerate() {
            *v = 7 * i as u64 + 3;
        }
        let res = CellResult {
            spec: spec.clone(),
            metrics,
        };
        let text = res.to_text();
        let back = CellResult::parse(&text, &spec.run_key()).unwrap();
        assert_eq!(back.metrics, res.metrics);
        assert_eq!(back.spec.canon(), spec.canon());
        // Key mismatch is detected.
        assert!(CellResult::parse(&text, "0000000000000000").is_err());

        // A cell holding only the 16 counters cells carried before the
        // tables took every `CoreStats` and `RtStats` counter fails
        // closed, so `run_sweep` recomputes it.
        let parent_keys = [
            "sim_cycles",
            "sim_insts",
            "commits",
            "irrevocable_commits",
            "conflict_aborts",
            "capacity_aborts",
            "explicit_aborts",
            "subscription_aborts",
            "useful_tx_cycles",
            "wasted_tx_cycles",
            "lock_wait_cycles",
            "backoff_cycles",
            "locks_acquired",
            "lock_timeouts",
            "contention_aborts",
            "anchor_correct",
        ];
        let parent: String = text
            .lines()
            .filter(|l| match l.strip_prefix("result.") {
                Some(kv) => parent_keys.contains(&kv.split('=').next().unwrap()),
                None => true,
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(parent.matches("result.").count(), 16);
        assert_eq!(
            CellResult::parse(&parent, &spec.run_key()).unwrap_err(),
            "cell missing result.irrevocable_cycles"
        );
    }

    #[test]
    fn variant_axis_expands_to_real_fields_only() {
        let base = RunSpec::new("genome", Mode::Htm, 8, 42);
        let base_key = base.run_key();
        let mut s = base.clone();
        s.set_field("variant", "bounded-set").unwrap();
        assert_eq!(s.machine.max_read_lines, 16);
        assert_eq!(s.machine.max_write_lines, 8);
        assert!(
            !s.canon().contains("variant"),
            "synthetic key must never serialize"
        );
        assert_ne!(s.run_key(), base_key);
        let mut h = base.clone();
        h.set_field("variant", "hybrid-stm").unwrap();
        assert_eq!(h.machine.fallback, htm_sim::FallbackPolicy::HybridStm);
        assert_ne!(h.run_key(), s.run_key());
        // Re-selecting the baseline restores the default values, so the
        // run key collapses back to the base spec's.
        h.set_field("variant", "irrevocable").unwrap();
        assert_eq!(h.run_key(), base_key);
        assert!(base.clone().set_field("variant", "optimistic").is_err());
    }

    #[test]
    fn fallback_spec_round_trips_and_forks_run_keys() {
        let base = RunSpec::new("list-hi", Mode::Htm, 8, 42);
        let mut keys = vec![base.run_key()];
        for v in ["hybrid-stm", "lazy-subscription", "lazy-subscription-safe"] {
            let mut s = base.clone();
            s.set_field("machine.fallback", v).unwrap();
            let back = RunSpec::parse(&s.canon()).unwrap();
            assert_eq!(back.canon(), s.canon());
            assert_eq!(back.machine.fallback, s.machine.fallback);
            keys.push(s.run_key());
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4, "every policy names a distinct run");
    }

    #[test]
    fn builtin_sweeps_expand() {
        let opts = CommonOpts::default_for_tests();
        for &name in builtin_sweep_names() {
            let sweep = builtin_sweep(name, &opts).unwrap();
            let cells = sweep.cells().unwrap();
            assert!(!cells.is_empty(), "{name} expands");
        }
        assert_eq!(
            builtin_sweep("pc-tags", &opts)
                .unwrap()
                .cells()
                .unwrap()
                .len(),
            2 * 2 * 4
        );
        assert_eq!(
            builtin_sweep("lock-tuning", &opts)
                .unwrap()
                .cells()
                .unwrap()
                .len(),
            5 * 3
        );
        let scaling = builtin_sweep("scaling", &opts).unwrap();
        let cells = scaling.cells().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 5);
        // The ladder rides the top-level `threads` field, so every cell
        // names a legal core count (1..=MAX_CORES is builder-checked).
        assert!(cells.iter().all(|c| c.spec.threads <= htm_sim::MAX_CORES));
        assert_eq!(cells.last().unwrap().spec.threads, 256);
        let serve = builtin_sweep("serve", &opts).unwrap();
        let cells = serve.cells().unwrap();
        assert_eq!(cells.len(), 4 * 2 * 2);
        // Every rung of the offered-load ladder resolves in the registry.
        assert!(cells
            .iter()
            .all(|c| workloads::workload_by_name(&c.spec.workload, true).is_some()));
        let protocols = builtin_sweep("protocols", &opts).unwrap();
        let cells = protocols.cells().unwrap();
        assert_eq!(cells.len(), 10 * 2 * 4);
        assert!(cells
            .iter()
            .all(|c| workloads::workload_by_name(&c.spec.workload, true).is_some()));
        // Each variant is a distinct spec (the bundle touched real fields).
        let mut keys: Vec<String> = cells.iter().map(|c| c.spec.run_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 10 * 2 * 4);
        assert_eq!(
            builtin_sweep("smoke", &opts)
                .unwrap()
                .cells()
                .unwrap()
                .len(),
            2
        );
        assert!(builtin_sweep("nope", &opts).is_none());
    }
}

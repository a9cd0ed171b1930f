//! Seeded mutation fuzz of the two text formats a sweep reads back: a run
//! spec (`RunSpec::parse`) and a persisted cell (`CellResult::parse`).
//! The inputs are the cell texts of every built-in sweep, each mutated by
//! dropping, duplicating or swapping lines, or by replacing a value with
//! one a config rule must catch. A bad text must come back as `Err`, never
//! a panic, and every spec that parses must name configs their `check`
//! accepts, since `Machine::new` and `SharedRt::new` panic on the rest.

use stagger_bench::sweep::{builtin_sweep, builtin_sweep_names, CellMetrics, CellResult};
use stagger_bench::{CommonOpts, RunSpec};
use stagger_prng::Xoshiro256StarStar;

/// Mutations per parser: 10^5 in all.
const CASES: u64 = 50_000;

/// Replacement values: empty, negative, not a number, overflowing floats
/// and integers at and past the top of the bit widths configs use.
const VALUES: [&str; 6] = [
    "",
    "-1",
    "NaN",
    "1e999",
    "4611686018427387904",
    "18446744073709551615",
];

/// `(run key, spec text, cell text)` of every cell of every built-in sweep.
fn cell_texts() -> Vec<(String, String, String)> {
    let opts = CommonOpts {
        threads: 16,
        quick: true,
        seed: 2015,
        jobs: 1,
        json: false,
        fallback: None,
    };
    let mut texts = Vec::new();
    for name in builtin_sweep_names() {
        let sweep = builtin_sweep(name, &opts).expect("a built-in sweep");
        for cell in sweep.cells().expect("built-in sweeps expand") {
            let result = CellResult {
                spec: cell.spec,
                metrics: CellMetrics::default(),
            };
            let spec = &result.spec;
            texts.push((spec.run_key(), spec.canon(), result.to_text()));
        }
    }
    texts
}

/// One to three line-level mutations of `text`.
fn mutate(text: &str, rng: &mut Xoshiro256StarStar) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        if lines.is_empty() {
            break;
        }
        let i = rng.below(lines.len() as u64) as usize;
        match rng.below(4) {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i].clone()),
            2 => {
                let j = rng.below(lines.len() as u64) as usize;
                lines.swap(i, j);
            }
            _ => {
                let v = VALUES[rng.below(VALUES.len() as u64) as usize];
                if let Some((key, _)) = lines[i].split_once('=') {
                    lines[i] = format!("{key}={v}");
                }
            }
        }
    }
    lines.join("\n")
}

fn assert_buildable(spec: &RunSpec, text: &str) {
    if let Err(e) = spec.machine_config().check() {
        panic!("parsed spec names a machine `check` refuses ({e}):\n{text}");
    }
    if let Err(e) = spec.runtime_config().check() {
        panic!("parsed spec names a runtime `check` refuses ({e}):\n{text}");
    }
}

/// Feed `CASES` mutations of the built-in texts (the spec's, or with
/// `cells` the whole cell's) to `parse`, which returns the spec of a text
/// it accepts; returns how many it accepted.
fn fuzz(seed: u64, cells: bool, parse: impl Fn(&str, &str) -> Option<RunSpec>) -> u64 {
    let texts = cell_texts();
    assert!(texts.len() > 100, "{} built-in cells", texts.len());
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut accepted = 0;
    for case in 0..CASES {
        let (key, spec, cell) = &texts[(case % texts.len() as u64) as usize];
        let text = mutate(if cells { cell } else { spec }, &mut rng);
        if let Some(spec) = parse(&text, key) {
            assert_buildable(&spec, &text);
            accepted += 1;
        }
    }
    accepted
}

// The two parsers run as two tests, so in parallel. Each outcome occurs:
// the mutations neither all break nor all spare the texts.

#[test]
fn mutated_specs_parse_or_fail_closed() {
    let ok = fuzz(0x5EED_5BEC, false, |text, _| RunSpec::parse(text).ok());
    assert!(0 < ok && ok < CASES, "{ok} of {CASES} specs parsed");
}

#[test]
fn mutated_cells_parse_or_fail_closed() {
    let parse = |text: &str, key: &str| CellResult::parse(text, key).ok().map(|c| c.spec);
    let ok = fuzz(0x5EED_CE11, true, parse);
    assert!(0 < ok && ok < CASES, "{ok} of {CASES} cells parsed");
}

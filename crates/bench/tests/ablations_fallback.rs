//! `--fallback` reaches every ablation: each section's runs are specs
//! built from the common flags, so pinning the hybrid-TM fallback changes
//! the protocol ablation's rows, not only the thread-scaling curves. And
//! the protocol ablation's verdict is computed from the rows it prints.

use std::process::Command;

/// The Ablation 1 block of an `ablations` transcript.
fn ablation1(threads: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .args(["--threads", threads, "--jobs", "2"])
        .args(args)
        .output()
        .expect("ablations binary runs");
    assert!(out.status.success(), "ablations {args:?}: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let start = text.find("== Ablation 1").expect("Ablation 1 printed");
    let end = text.find("== Ablation 2").expect("Ablation 2 printed");
    text[start..end].to_string()
}

#[test]
fn fallback_pin_reaches_the_protocol_ablation() {
    let default = ablation1("8", &[]);
    let hybrid = ablation1("8", &["--fallback", "hybrid-stm"]);
    assert_eq!(default.lines().count(), hybrid.lines().count());
    assert_ne!(
        default, hybrid,
        "--fallback hybrid-stm left Ablation 1 as it was"
    );
}

/// At 4 threads under the hybrid-TM fallback Staggered raises aborts, so
/// the protocol-independence sentence must not be printed, and every row
/// whose printed cut is negative must be named.
#[test]
fn protocol_verdict_follows_the_rows() {
    let block = ablation1("4", &["--fallback", "hybrid-stm"]);
    // Rows end in the abort cut: `kmeans     Eager   | ... |     -9%`.
    let rows: Vec<(String, f64)> = block
        .lines()
        .filter(|l| l.contains(" | ") && l.ends_with('%'))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            let cut = cols[cols.len() - 1].trim_end_matches('%').parse().unwrap();
            (format!("{} {}", cols[0], cols[1]), cut)
        })
        .collect();
    assert_eq!(rows.len(), 6, "{block}");
    let holds = block.contains("claim (Section 1) holds");
    let all_cut = rows.iter().all(|&(_, cut)| cut > 0.0);
    assert_eq!(holds, all_cut, "verdict disagrees with its rows:\n{block}");
    let verdict = &block[block.find("\nStaggered").expect("a verdict")..];
    for (row, cut) in &rows {
        if *cut < 0.0 {
            assert!(verdict.contains(row.as_str()), "{row} not named:\n{block}");
        }
    }
}

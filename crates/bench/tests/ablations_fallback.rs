//! `--fallback` reaches every ablation: each section's runs are specs
//! built from the common flags, so pinning the hybrid-TM fallback changes
//! the protocol ablation's rows, not only the thread-scaling curves.

use std::process::Command;

/// The Ablation 1 block of an `ablations` transcript.
fn ablation1(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .args(["--threads", "8", "--jobs", "2"])
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
    let default = ablation1(&[]);
    let hybrid = ablation1(&["--fallback", "hybrid-stm"]);
    assert_eq!(default.lines().count(), hybrid.lines().count());
    assert_ne!(
        default, hybrid,
        "--fallback hybrid-stm left Ablation 1 as it was"
    );
}

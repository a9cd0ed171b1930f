//! Inputs the harness cannot honour are usage errors at the CLI (usage
//! text on stderr, exit status 2, nothing run), never silently ignored,
//! mapped to what is left, or a panic inside a pool worker: flags that
//! selected a core driver or an interpreter when there was more than one
//! of each, serve's key-distribution choice when there was more than one
//! distribution, core counts the simulated machine cannot be built with,
//! serve loads whose arrivals would overflow, and workload names that are
//! not the canonical spelling of one.

use std::process::Command;

#[test]
fn removed_inputs_are_usage_errors() {
    for (args, complaint) in [
        (
            ["--scheduler", "cooperative"],
            "unknown option '--scheduler'",
        ),
        (["--scheduler", "threaded"], "unknown option '--scheduler'"),
        (["--host-threads", "2"], "unknown option '--host-threads'"),
        (["--interp", "bytecode"], "unknown option '--interp'"),
        (["--interp", "legacy"], "unknown option '--interp'"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .arg("--quick")
            .args(args)
            .output()
            .expect("paper binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: exit status");
        assert!(out.stdout.is_empty(), "{args:?}: no table before the error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(complaint), "{args:?}: got {err}");
        assert!(err.contains("usage: paper"), "{args:?}: usage on stderr");
    }
}

#[test]
fn serve_rejects_removed_dist_and_overflowing_loads() {
    for (args, complaint) in [
        (&["--dist", "flash"][..], "unknown option '--dist'"),
        (
            &["--loads", "8000,18446744073709551615"][..],
            "--loads value 18446744073709551615 is 0 or its arrivals overflow",
        ),
        (
            &["--loads", "0"][..],
            "--loads value 0 is 0 or its arrivals overflow",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--quick", "--cores", "8"])
            .args(args)
            .output()
            .expect("serve binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: exit status");
        assert!(out.stdout.is_empty(), "{args:?}: nothing run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(complaint), "{args:?}: got {err}");
        assert!(err.contains("usage: serve"), "{args:?}: usage on stderr");
    }
}

#[test]
fn non_canonical_serve_names_are_unknown_workloads() {
    // `+0600` parses as 600, but one run must not carry two names.
    let out = Command::new(env!("CARGO_BIN_EXE_profile"))
        .args(["--quick", "--workload", "serve-flash-i+0600"])
        .output()
        .expect("profile binary runs");
    assert_eq!(out.status.code(), Some(2), "exit status");
    assert!(out.stdout.is_empty(), "nothing run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown workload 'serve-flash-i+0600'"),
        "got {err}"
    );
}

#[test]
fn core_counts_outside_the_machine_are_usage_errors() {
    for (bin, extra) in [
        (env!("CARGO_BIN_EXE_paper"), &["--quick"][..]),
        (
            env!("CARGO_BIN_EXE_scaling"),
            &["--quick", "--cores", "16"][..],
        ),
        (
            env!("CARGO_BIN_EXE_serve"),
            &["--quick", "--cores", "8", "--loads", "8000"][..],
        ),
        (env!("CARGO_BIN_EXE_profile"), &["--quick"][..]),
        (env!("CARGO_BIN_EXE_sweep"), &["--list"][..]),
    ] {
        let name = std::path::Path::new(bin).file_stem().unwrap();
        let name = name.to_string_lossy();
        for threads in ["0", "257"] {
            let out = Command::new(bin)
                .args(extra)
                .args(["--threads", threads])
                .output()
                .expect("exhibit binary runs");
            let what = format!("{name} --threads {threads}");
            assert_eq!(out.status.code(), Some(2), "{what}: exit status");
            assert!(out.stdout.is_empty(), "{what}: nothing run");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains(&format!("--threads must be in 1..=256, got {threads}")),
                "{what}: got {err}"
            );
            assert!(err.contains(&format!("usage: {name}")), "{what}: usage");
        }
    }
}

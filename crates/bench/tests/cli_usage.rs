//! Inputs that selected a core driver or an interpreter, when there was
//! more than one of each, are usage errors at the CLI (usage text on stderr,
//! exit status 2, nothing run), never silently ignored or mapped to what
//! is left.

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

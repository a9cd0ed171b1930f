#!/usr/bin/env bash
# Build the benchmark offline, then run it. Usage and protocol: README.md,
# or `benchmark/run.sh --help`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# The driver names its build directory through CARGO_TARGET_DIR; without
# it, build into the repo's own target/ so the crates are compiled once.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/repo-benchmark" "$@"

#!/usr/bin/env bash
# Non-test line count of the crates: the lines above the first
# column-0 `#[cfg(test)]` (the test module) of each crates/*/src/*.rs and
# crates/*/src/bin/*.rs; a file without one counts whole. Prints one
# number.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
awk 'FNR == 1 { counting = 1 }
     /^#\[cfg\(test\)\]/ { counting = 0 }
     counting { n++ }
     END { print n + 0 }' crates/*/src/*.rs crates/*/src/bin/*.rs

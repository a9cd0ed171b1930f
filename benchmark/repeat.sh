#!/usr/bin/env bash
# A/A check of the benchmark itself: two full sets of runs of the same
# build, rounds interleaved (A1 B1 A2 B2 ...). Exits non-zero if a
# host-time metric's medians differ by more than its bound, or an exact
# metric or a sim_digest differs at all. Takes run.sh's options.
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --sets 2 --no-trace "$@"

#!/usr/bin/env bash
# Offline CI gate for the reproduction.
#
#   scripts/ci.sh
#
# Gates, in order:
#   - cargo fmt --check and clippy -D warnings;
#   - release builds of the default members (the root and every crate
#     but bench) and the exhibit binaries;
#   - tier-1 tests (every default member's tests, among them golden_quick:
#     29 of the golden run digests) and the workspace tests, among them cli_usage (removed
#     flags, serve's --dist and overflowing --loads, and --threads 0 /
#     257 on paper, scaling, serve, profile and sweep print usage and
#     exit 2) and ablations_fallback (--fallback reaches every ablation);
#   - by name: the golden run digests (debug and release), the
#     coherence-directory invariant, machine footprint (idle machines
#     under 4 MiB, 65,536 lines stored on 16 cores under 9 MiB and
#     131,072 on 256 under 32 MiB), scheduler_stress (debug and release,
#     with htm-sim's, tm-interp's and stagger-core's tests in release) and
#     wait_elision;
#   - benchmark/run.sh --check (the benchmark's tables == BENCHMARK.json;
#     host speed is judged by its interleaved pairs, not by a number here);
#   - paper and ablations --threads 8 cmp'd against results/paper.txt and
#     results/ablations.txt;
#   - the four checked-in sweeps recomputed from nothing, each one's
#     .json and .csv tables (every simulated counter of every cell) cmp'd
#     against results/sweeps/<name>/;
#   - scaling: a 128-core smoke, and the 256-core simulated columns cmp'd
#     against results/ci_scaling_256.txt;
#   - paper --quick --json cmp'd against results/paper_quick.txt, with 60
#     runs in the JSON report;
#   - profile --quick cmp'd against results/profile_list-hi.txt, plus
#     sanity checks of its JSONL event dump, and a profile --quick --mode
#     Staggered smoke that must print lock-wait percentiles;
#   - serve: a small ramp cmp'd against results/ci_serve.txt (plus JSONL
#     sanity checks) and the default ramp against results/serve.txt;
#   - the lazy-subscription window regression test;
#   - protocols --quick: all 80 cells run, the new abort causes engage,
#     and the table is cmp'd against results/protocols.txt;
#   - the sweep cache smoke: a cold and a warm two-cell sweep;
#   - the working tree: `git status --porcelain` at the end equals what
#     it was at the start.
#
# Every tracked file under results/ other than README.md is compared
# here, so a passing run leaves the tree clean, and the last gate checks
# that it did. Transcripts of the smoke gates go to target/ci/, JSON
# reports and event dumps to ignored paths.
#
# Everything runs with --offline: the workspace has no external
# dependencies by design, and CI must not depend on a registry.
set -euo pipefail
cd "$(dirname "$0")/.."
tree_before="$(git status --porcelain)"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release (workspace root)"
cargo build --release --offline

echo "== cargo build --release -p stagger-bench (exhibit binaries)"
cargo build --release --offline -p stagger-bench

echo "== cargo test -q (tier-1)"
cargo test -q --offline

echo "== cargo test -q --workspace"
cargo test -q --offline --workspace

echo "== golden_digests (101 quick cells vs crates/bench/tests/golden/quick.digests)"
# Stats, event streams, returns and counters of every cell hash to the
# digest recorded for it. Runs in the workspace suite above too; by name
# so a moved simulated quantity is visible on its own.
cargo test -q --offline -p stagger-bench --test golden_digests
# And in the release profile, which is what results/*.txt, the sweeps and
# the benchmark are printed by: a debug-only simulated op would make the
# recorded digests describe a different machine.
cargo test -q --release --offline -p stagger-bench --test golden_digests

echo "== coherence-directory invariant (seeded property test)"
# sharers == cores caching the line, readers/writers == live transactions'
# footprints, after every batch of a random op mix on 2-80 cores. Runs in
# the workspace suite above too; by name so a break is visible on its own.
cargo test -q --offline -p htm-sim --test directory

echo "== machine footprint (idle machines under 4 MiB; 65,536 lines stored on 16 cores under 9 MiB, 131,072 on 256 under 32 MiB)"
# Guards the zero-page allocation of the memory-sized rows that hold each
# line's data and directory sets (a memset costs 88+ MiB per
# Machine::new), the size of the cache set tables (one u32 per set), and
# the bytes behind each touched line: an 88- or 160-byte row and 4-byte
# cache ways.
cargo test -q --offline -p htm-sim --test footprint

echo "== scheduler_stress (500 random scenarios, elided vs polled waits, recorded digest)"
# Stats and event streams byte-identical with spin-waits parked or
# polled, and equal to the digest recorded in the test, including a
# steady trickle of 64-core scenarios; being a debug build, every gate
# also checks its admission against the linear (clock, id) scan.
cargo test -q --offline -p htm-sim --test scheduler_stress

echo "== htm-sim, tm-interp and stagger-core tests and scheduler_stress, release build"
# The scheduler packs (key, id) into one word and the interpreter
# addresses every frame's registers as base + reg: a shift, clamp or index
# that only misbehaves where overflow wraps and debug assertions are
# compiled out shows here, and the stress digest recorded above pins this
# build too. The runtime's lock loops end in Core::spin_wait, and the
# results are printed by release builds, so its tests run here too.
cargo test -q --release --offline -p htm-sim --lib
cargo test -q --release --offline -p tm-interp
cargo test -q --release --offline -p stagger-core
cargo test -q --release --offline -p htm-sim --test scheduler_stress

echo "== wait_elision (quick workloads x modes x fallbacks, elided vs polled waits)"
# The same differential oracle through the real runtime's spin loops: ten
# workloads, four modes, three fallback policies at 16 cores, list-hi at
# 64, and no parks at all on one core.
cargo test -q --offline -p stagger-bench --test wait_elision

echo "== benchmark/run.sh --check (benchmark tables == BENCHMARK.json)"
benchmark/run.sh --check

echo "== exhibits vs results/*.txt (checked-in baselines cannot drift)"
# Every checked-in table and figure is what this tree's binaries print,
# byte for byte outside the host-timing lines.
same_as() { grep -v '^harness:' | cmp - "$1"; }
./target/release/paper --jobs 2 | same_as results/paper.txt
./target/release/ablations --threads 8 --jobs 2 | same_as results/ablations.txt

echo "== sweeps vs results/sweeps/*/*.{json,csv} (checked-in tables cannot drift)"
# The four checked-in sweeps are recomputed from nothing into a scratch
# directory; both tables (run keys and every counter of every cell
# included) must equal the checked-in ones. A cell cache a local run left
# under results/sweeps/*/cells/ is ignored, and neither read nor compared.
rm -rf results/sweeps-ci
for sweep in pc-tags lock-tuning scaling serve; do
    ./target/release/sweep --quick --jobs 2 --spec $sweep --dir results/sweeps-ci \
      > /dev/null
    for table in $sweep.json $sweep.csv; do
        cmp results/sweeps/$sweep/$table results/sweeps-ci/$sweep/$table
    done
done

echo "== scaling 128-core smoke (quick, both modes)"
# The wide-bitset + indexed-scheduler path past the single-word CoreSet
# fast path (n_cores > 64) must stay runnable: list-hi and memcached in
# both modes at 128 cores.
mkdir -p target/ci
./target/release/scaling --quick --cores 128 --jobs 2 \
  | tee target/ci/scaling_128.txt
test "$(awk '$3 == 128' target/ci/scaling_128.txt | wc -l)" -eq 4

echo "== scaling 256 cores vs results/ci_scaling_256.txt (simulated columns)"
# The widest machine, where nine in ten gated ops are spin polls that
# event-driven waiting fast-forwards: cycles and aborts per commit must
# equal what the polling simulator printed (recorded with the binary of
# the commit before event-driven waiting). The other columns are host
# timings and host-side counters.
./target/release/scaling --quick --cores 256 --jobs 2 \
  | awk '$3 == 256 { print $1, $2, $3, $4, $5 }' \
  | cmp - results/ci_scaling_256.txt

echo "== paper --quick --jobs 2 --json vs results/paper_quick.txt"
# The only gate on the quick-scale banners (Tables 1, 3 and 4 put
# " (quick)" mid-line), and on the --json writer: the ignored
# results/BENCH_paper.json must hold the matrix's 60 runs.
rm -f results/BENCH_paper.json
./target/release/paper --quick --jobs 2 --json | same_as results/paper_quick.txt
test "$(grep -c '"workload"' results/BENCH_paper.json)" -eq 60

echo "== profile --quick --trace-out vs results/profile_list-hi.txt (+ JSONL sanity)"
# Every line is simulated except the host timings and the "wrote N
# events to <path>" echo.
./target/release/profile --quick --trace-out results/profile_events.jsonl \
  | grep -v -e '^harness:' -e '^wrote [0-9]* events to ' \
  | cmp - results/profile_list-hi.txt
# The JSONL event dump must be non-empty, line-oriented JSON objects
# carrying the documented keys.
test -s results/profile_events.jsonl
head -n 1 results/profile_events.jsonl | grep -q '"clock"'
head -n 1 results/profile_events.jsonl | grep -q '"kind"'
if grep -qv '^{.*}$' results/profile_events.jsonl; then
    echo "ci.sh: malformed JSONL line in results/profile_events.jsonl" >&2
    exit 1
fi

echo "== profile --quick --mode Staggered smoke (lock-wait percentiles)"
# Only the staggered modes take advisory locks, so no gated file holds the
# lock-wait section: at least one lock word must print with percentiles.
./target/release/profile --quick --mode Staggered \
  | tee target/ci/profile_staggered.txt
grep -Eq '^  word +0x[0-9a-f]+: [0-9]+ attempts .* p50 [0-9]+ p90 [0-9]+ p99 [0-9]+ max [0-9]+$' \
  target/ci/profile_staggered.txt

echo "== serve smoke vs results/ci_serve.txt (+ JSONL sanity)"
# Small open-loop ramp, both modes. The per-request latency table is
# derived from the observability event stream, so every column is a
# simulated quantity and must equal the checked-in file; only the
# host-timing lines and the "serve: wrote" echo are filtered.
./target/release/serve --quick --cores 8 --loads 24000,8000 \
    --jsonl results/ci_serve.jsonl \
  | grep -v -e '^harness:' -e '^serve: wrote ' \
  | cmp - results/ci_serve.txt
# The per-request JSONL export must be non-empty, line-oriented JSON
# objects carrying the documented keys.
test -s results/ci_serve.jsonl
head -n 1 results/ci_serve.jsonl | grep -q '"latency"'
head -n 1 results/ci_serve.jsonl | grep -q '"dominant"'
if grep -qv '^{.*}$' results/ci_serve.jsonl; then
    echo "ci.sh: malformed JSONL line in results/ci_serve.jsonl" >&2
    exit 1
fi
rm -f results/ci_serve.jsonl
# The default flash-crowd ramp on 64 cores, every column simulated.
./target/release/serve --jobs 2 \
  | grep -v -e '^harness:' -e '^serve: wrote ' \
  | cmp - results/serve.txt

echo "== lazy-subscription window regression gate"
# The deliberately unsafe lazy-subscription policy must keep reproducing
# the Dice-et-al. torn-commit window deterministically, and the safe
# variant must keep closing it with a commit-time subscription abort.
# Runs as part of the workspace suite above too; the explicit invocation
# keeps the safety gate visible in CI logs.
cargo test -q --offline -p stagger-core --test lazy_subscription

echo "== protocols exhibit smoke (full variant matrix, quick)"
# All 80 cells of the protocol matrix must run clean — workload
# validation passes under every variant — and the new abort causes must
# actually engage: bounded-set rows report capacity aborts,
# lazy-subscription-safe rows report subscription aborts.
# The fresh table must also be the checked-in one.
protocols_out="$(./target/release/protocols --quick --jobs 2)"
echo "$protocols_out"
test "$(grep -Ec '[0-9]\.[0-9]{2}x$' <<<"$protocols_out")" -eq 80
awk '$3 == "bounded-set" { c += $8 } END { exit !(c > 0) }' <<<"$protocols_out"
awk '$3 == "lazy-subscription-safe" { s += $9 } END { exit !(s > 0) }' \
  <<<"$protocols_out"
same_as results/protocols.txt <<<"$protocols_out"

echo "== sweep --quick --spec smoke (ablation-sweep cache smoke)"
# Cold run: the two-cell smoke sweep computes both cells and populates the
# content-hashed cell cache.
rm -rf results/sweeps-ci
./target/release/sweep --quick --spec smoke --dir results/sweeps-ci \
  | tee target/ci/sweep_smoke.txt
grep -q 'sweep smoke: 2 cells total, 0 cached, 2 computed, 0 remaining' \
  target/ci/sweep_smoke.txt
test "$(ls results/sweeps-ci/smoke/cells/*.cell | wc -l)" -eq 2
test -s results/sweeps-ci/smoke/smoke.json
test -s results/sweeps-ci/smoke/smoke.csv
# Warm re-run: every cell must come from the cache (100% hit, zero
# recomputation) and the emitted tables must be byte-identical.
cp results/sweeps-ci/smoke/smoke.json results/sweeps-ci/smoke.json.cold
cp results/sweeps-ci/smoke/smoke.csv results/sweeps-ci/smoke.csv.cold
./target/release/sweep --quick --spec smoke --dir results/sweeps-ci \
  | tee target/ci/sweep_smoke_rerun.txt
grep -q 'sweep smoke: 2 cells total, 2 cached, 0 computed, 0 remaining' \
  target/ci/sweep_smoke_rerun.txt
cmp results/sweeps-ci/smoke/smoke.json results/sweeps-ci/smoke.json.cold
cmp results/sweeps-ci/smoke/smoke.csv results/sweeps-ci/smoke.csv.cold

echo "== working tree unchanged (git status --porcelain)"
tree_after="$(git status --porcelain)"
if [ "$tree_after" != "$tree_before" ]; then
    echo "ci.sh: the run changed the working tree:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi

echo "== ci.sh: all gates passed"

#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and a performance
# regression check against the committed BENCH_perf.json baseline.
#
#   scripts/check.sh
#
# The perf check compares the single-simulation cycle rate (the hot-loop
# figure of merit) with a tolerance band, CHECK_TOLERANCE_PCT percent
# (default 10). Baselines are machine-specific: on new hardware,
# regenerate with
#   ./target/release/equinox perf --scale 0.3 --out BENCH_perf.json
# first, or skip the comparison with EQUINOX_SKIP_PERF=1.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== env-mutation guard =="
# Configuration flows by value through the equinox-config spec; nothing
# outside test code may mutate the process environment.
if grep -rn "set_var(" --include='*.rs' crates/*/src src examples 2>/dev/null \
    | grep -vE ':[0-9]+: *(//|\*)'; then
  echo "FAIL: std::env::set_var outside tests — thread configuration through ExperimentSpec instead" >&2
  exit 1
fi
echo "OK: no set_var outside tests"

echo "== env-read guard =="
# The spec's env layer (crates/config/src/resolve.rs) is the one place
# EQUINOX_* variables are read; a library that consults the environment
# on its own escapes provenance and the resolved-spec artifact block.
if grep -rn "env::var" --include='*.rs' crates/*/src src examples 2>/dev/null \
    | grep -v '^crates/config/src/resolve.rs:' | grep -vE ':[0-9]+: *(//|\*)'; then
  echo "FAIL: std::env::var outside crates/config/src/resolve.rs — add a spec field instead" >&2
  exit 1
fi
echo "OK: environment is read only by the spec resolver"

echo "== single-binary guard =="
extra_bins=$(ls crates/bench/src/bin | grep -vx 'equinox.rs' || true)
if [ -n "$extra_bins" ]; then
  echo "$extra_bins"
  echo "FAIL: crates/bench/src/bin/ holds more than equinox.rs — add a scenario to the driver instead" >&2
  exit 1
fi
echo "OK: equinox is the only binary"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== benchmark harness =="
# A workspace of its own on the crates' public entry points: its unit
# tests, and one short untraced run that must come out correct, so a
# rename that breaks the harness fails here rather than in the pipeline.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --workload sat-kmeans --seconds 4 --trace 0 | tail -n 1 | grep -q '"correct": true'
echo "OK: benchmark harness builds, passes its tests and completes a correct run"

echo "== perf =="
# Default 3-rep best-of (not --quick): single-rep rates swing close to
# the tolerance band on a noisy box.
art=$(mktemp)
trap 'rm -f "$art"' EXIT
./target/release/equinox perf --scale 0.3 --out "$art" 2>/dev/null
sed -n '/"results": {/,$p' "$art"

if [ "${EQUINOX_SKIP_PERF:-0}" = "1" ]; then
  echo "perf comparison skipped (EQUINOX_SKIP_PERF=1)"
  exit 0
fi

# `"key": <number>` on a line of its own (pinned by crates/bench/tests/driver.rs).
field() { sed -n "s/^ *\"$1\": \([0-9.]*\),\{0,1\}\$/\1/p" "$2"; }
rate=$(field single_cycles_per_sec "$art")
base=$(field single_cycles_per_sec BENCH_perf.json)
if [ -z "$rate" ] || [ -z "$base" ]; then
  echo "FAIL: could not parse single_cycles_per_sec from the perf artifact or BENCH_perf.json" >&2
  exit 1
fi
tol=${CHECK_TOLERANCE_PCT:-10}
min=$(( base * (100 - tol) / 100 ))
if [ "$rate" -lt "$min" ]; then
  echo "FAIL: single-sim rate $rate cycles/s is more than ${tol}% below baseline $base" >&2
  echo "      (machine-specific baseline; regenerate with ./target/release/equinox perf --scale 0.3 --out BENCH_perf.json)" >&2
  exit 1
fi
echo "OK: single-sim rate $rate cycles/s vs baseline $base (floor $min)"

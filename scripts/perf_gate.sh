#!/usr/bin/env bash
# CI perf regression gate: runs `equinox perf` at reduced scale and
# enforces five bounds on the rates in its artifact.
#
#   1. `single_cycles_per_sec` must reach at least PERF_GATE_MIN_PCT% of
#      the checked-in BENCH_perf.json baseline. Baselines are
#      machine-specific (see scripts/check.sh), so the default band is
#      deliberately wide — it catches catastrophic hot-loop regressions
#      (an accidental allocation in Network::step, quadratic bookkeeping),
#      not noise or runner-speed differences. For a same-machine
#      comparison with a tight band, use scripts/check.sh instead.
#
#   2. `low_load_cycles_per_sec` must be at least PERF_GATE_RATIO× the
#      `low_load_exhaustive_cycles_per_sec` measured in the same run: the
#      same low-load load–latency point stepped with the activity gate
#      on and with the exhaustive every-router-every-cycle sweep
#      (`activity_gate = false`). The ratio is what the gate buys; it
#      cancels machine speed and does not move when the saturated hot
#      loop gets faster or slower (measured ~3×). A broken, disabled, or
#      regressed gate reads ~1× and fails this bound on any hardware.
#
#   3. `sim_thread_speedup` (saturated DA2Mesh at sim-threads=4 vs 1)
#      must reach PERF_GATE_SIM_RATIO on machines with at least 4 cores.
#      Like bound 2 this is a within-run ratio, so it is machine-speed
#      independent; it is skipped (with a notice) when the runner has
#      fewer than 4 cores, where a 4-lane team cannot physically scale.
#
#   4. `cached_sweep_speedup` (the quick repro sweep served from the
#      content-addressed result cache vs computed) must reach
#      PERF_GATE_CACHE_RATIO. Another within-run ratio: replaying
#      finished RunMetrics from disk skips the simulation entirely, so a
#      healthy cache beats the computed sweep by orders of magnitude
#      (measured >100x); the conservative floor only trips when caching
#      silently stops hitting.
#
#   5. `single_cycles_per_sec / obs_on_cycles_per_sec` (the obs-off vs
#      obs-on cost of the same saturated hot loop) must stay at or below
#      PERF_GATE_OBS_RATIO. Within-run and machine-independent: the full
#      observability layer — registry sampling plus per-router stall
#      attribution — is designed to cost one branch per event when off
#      and bounded counter arithmetic when on (measured ~3-12% overhead).
#      The 2x ceiling only trips when instrumentation grows a per-event
#      allocation or a hot-loop scan.
#
# Usage: scripts/perf_gate.sh
# Env:   PERF_GATE_MIN_PCT (default 40), PERF_GATE_RATIO (default 2),
#        PERF_GATE_SIM_RATIO (default 1.5), PERF_GATE_CACHE_RATIO
#        (default 3), PERF_GATE_OBS_RATIO (default 2.0),
#        PERF_GATE_SCALE (default 0.15)

set -euo pipefail
cd "$(dirname "$0")/.."

MIN_PCT="${PERF_GATE_MIN_PCT:-40}"
RATIO="${PERF_GATE_RATIO:-2}"
SIM_RATIO="${PERF_GATE_SIM_RATIO:-1.5}"
CACHE_RATIO="${PERF_GATE_CACHE_RATIO:-3}"
OBS_RATIO="${PERF_GATE_OBS_RATIO:-2.0}"
SCALE="${PERF_GATE_SCALE:-0.15}"

if [ ! -x target/release/equinox ]; then
    echo "perf_gate: target/release/equinox missing — run cargo build --release --workspace first" >&2
    exit 1
fi

art=$(mktemp)
trap 'rm -f "$art"' EXIT
./target/release/equinox perf --quick --scale "$SCALE" --out "$art" 2>/dev/null
sed -n '/"results": {/,$p' "$art"

# The pretty artifact carries each result as `"key": <number>` on a line
# of its own (pinned by crates/bench/tests/driver.rs).
field() { sed -n "s/^ *\"$1\": \([0-9.]*\),\{0,1\}\$/\1/p" "$2"; }

single=$(field single_cycles_per_sec "$art")
low=$(field low_load_cycles_per_sec "$art")
low_ex=$(field low_load_exhaustive_cycles_per_sec "$art")
base=$(field single_cycles_per_sec BENCH_perf.json)

if [ -z "$single" ] || [ -z "$low" ] || [ -z "$low_ex" ] || [ "$low_ex" -eq 0 ] || [ -z "$base" ]; then
    echo "perf_gate: failed to parse rates (single='$single' low='$low' low_exhaustive='$low_ex' base='$base')" >&2
    exit 1
fi

min=$((base * MIN_PCT / 100))
if [ "$single" -lt "$min" ]; then
    echo "perf_gate: FAIL — single_cycles_per_sec $single < ${MIN_PCT}% of baseline $base ($min)" >&2
    exit 1
fi

if ! awk -v g="$low" -v e="$low_ex" -v r="$RATIO" 'BEGIN { exit !(g / e >= r) }'; then
    echo "perf_gate: FAIL — low_load_cycles_per_sec $low < ${RATIO}x the exhaustive sweep's $low_ex: activity gating regressed" >&2
    exit 1
fi

speedup=$(field sim_thread_speedup "$art")
cores=$(field cores "$art")
if [ -z "$speedup" ] || [ -z "$cores" ]; then
    echo "perf_gate: failed to parse sim-thread fields (speedup='$speedup' cores='$cores')" >&2
    exit 1
fi
if [ "$cores" -ge 4 ]; then
    if ! awk -v s="$speedup" -v r="$SIM_RATIO" 'BEGIN { exit !(s >= r) }'; then
        echo "perf_gate: FAIL — sim_thread_speedup ${speedup}x < ${SIM_RATIO}x on a ${cores}-core runner: intra-run parallelism regressed" >&2
        exit 1
    fi
    sim_note="sim-thread speedup ${speedup}x >= ${SIM_RATIO}x"
else
    sim_note="sim-thread speedup check skipped (${cores} cores < 4; measured ${speedup}x)"
fi

cache_speedup=$(field cached_sweep_speedup "$art")
if [ -z "$cache_speedup" ]; then
    echo "perf_gate: failed to parse cached_sweep_speedup" >&2
    exit 1
fi
if ! awk -v s="$cache_speedup" -v r="$CACHE_RATIO" 'BEGIN { exit !(s >= r) }'; then
    echo "perf_gate: FAIL — cached_sweep_speedup ${cache_speedup}x < ${CACHE_RATIO}x: result cache regressed" >&2
    exit 1
fi

obs_on=$(field obs_on_cycles_per_sec "$art")
if [ -z "$obs_on" ] || [ "$obs_on" -eq 0 ]; then
    echo "perf_gate: failed to parse obs_on_cycles_per_sec (got '$obs_on')" >&2
    exit 1
fi
if ! awk -v s="$single" -v o="$obs_on" -v r="$OBS_RATIO" 'BEGIN { exit !(s / o <= r) }'; then
    echo "perf_gate: FAIL — obs-off/obs-on ratio $single/$obs_on exceeds ${OBS_RATIO}x: observability overhead regressed" >&2
    exit 1
fi

echo "perf_gate: OK — single $single >= $min (${MIN_PCT}% of $base), low-load $low >= ${RATIO}x exhaustive $low_ex, $sim_note, cached sweep ${cache_speedup}x >= ${CACHE_RATIO}x, obs-on $obs_on within ${OBS_RATIO}x of obs-off"

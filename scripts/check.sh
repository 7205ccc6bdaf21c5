#!/usr/bin/env bash
# Tier-1 gate: source guards, clippy, release build, full test suite, and the
# benchmark harness's own tests plus one short correct run. Nothing here
# reads a clock; speed claims go through benchmark/ (benchmark/README.md).
#
#   scripts/check.sh
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

echo "== one-speed-instrument guard =="
# The benchmark is the only thing that times the simulator: no second
# baseline file, no gate script, no sed/awk parsing of artifacts (the
# bracketed pattern keeps this line from matching itself).
if [ -e BENCH_perf.json ] || [ -e scripts/perf_gate.sh ] \
    || grep -HnwE 's[e]d|a[w]k' scripts/*.sh | grep -vE ':[0-9]+: *#'; then
  echo "FAIL: speed claims go through benchmark/ (see benchmark/README.md)" >&2
  exit 1
fi
echo "OK: no perf baseline file, no gate script, no stream editor over artifacts"

echo "== unsafe guard =="
# Every library forbids `unsafe` except the two holding the StepTeam /
# DisjointMut sites; ROADMAP item 1(b) ends by emptying this list.
unsafe_exempt="crates/core/src/lib.rs crates/exec/src/lib.rs"
no_forbid=$(grep -L '^#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs src/lib.rs | xargs)
if [ "$no_forbid" != "$unsafe_exempt" ]; then
  echo "FAIL: crates without #![forbid(unsafe_code)] are [$no_forbid], expected exactly [$unsafe_exempt]" >&2
  exit 1
fi
echo "OK: unsafe is forbidden everywhere but $unsafe_exempt"

echo "== ejection-polling guard =="
# The network says which ejection ports hold a flit; a run path that
# asks every sink every cycle instead pays per port, not per flit.
if grep -rnE 'pop_ejected_node|has_ejected\(\)' crates/core/src/system.rs \
    crates/core/src/loadlat.rs crates/core/src/heatmap.rs crates/bench/src \
    | grep -vE ':[0-9]+: *(//|\*)'; then
  echo "FAIL: per-cycle ejection polling on a run path — use Network::drain_ejected, or next_ejecting + pop_ejected for a sink that may decline" >&2
  exit 1
fi
echo "OK: run paths drain ejected flits through the network's ejection set"

echo "== scheme-table guard =="
# What a scheme is made of lives in crates/core/src/scheme.rs
# (SchemeKind::plan); the files that assemble and observe a machine read
# the plan and, above their test modules, name no scheme variant
# (SchemeKind::ALL and the type itself are fine).
for f in crates/core/src/system.rs crates/core/src/loadlat.rs crates/core/src/obs.rs crates/core/src/ni.rs; do
  tests_at=$(grep -n -m1 '^#\[cfg(test)\]' "$f" | cut -d: -f1 || true)
  if head -n "${tests_at:-1000000}" "$f" | grep -nE 'SchemeKind::[A-Z][a-z]'; then
    echo "FAIL: $f names a scheme variant outside its tests — add what it needs to the plan in scheme.rs" >&2
    exit 1
  fi
done
echo "OK: only scheme.rs knows what each scheme is made of"

echo "== one-home-per-flit guard =="
# A flit sent down a link is staged in the input VC it is bound for until
# its arrival cycle (RouterCore::stage); the link records only when it
# arrives, on the arrival wheels. So non-test code in link.rs names no
# Slot, and the per-link flit and credit worklists the wheels replaced
# stay gone.
tests_at=$(grep -n -m1 '^#\[cfg(test)\]' crates/noc/src/link.rs | cut -d: -f1 || true)
if head -n "${tests_at:-1000000}" crates/noc/src/link.rs | grep -nE '\bSlot' \
    || grep -rnE 'active_(flit|credit)_links' --include='*.rs' crates src examples benchmark/src; then
  echo "FAIL: a link holds flits again — stage them in the downstream VC and record the arrival on the wheel" >&2
  exit 1
fi
echo "OK: a flit in flight has one home, its downstream buffer"

echo "== one-descriptor-per-packet guard =="
# What the flits of a packet share (id, src, dst, len, sink) is stored
# once, in the network's PacketTable; a VC slot is a stamp and one word
# of per-flit fields around the packet's handle. So flit.rs keeps Slot at
# two words, and the SlotExt trait reads no per-packet field.
flit_rs=crates/noc/src/flit.rs
slot_trait=""
while IFS= read -r line; do
  [[ "$line" == "pub(crate) trait SlotExt "* ]] && slot_trait+=$'\n'
  if [ -n "$slot_trait" ]; then
    slot_trait+="$line"$'\n'
    [ "$line" = "}" ] && break
  fi
done < "$flit_rs"
if ! grep -qE '^pub\(crate\) type Slot = \[u64; 2\];$' "$flit_rs" || [ -z "$slot_trait" ] \
    || grep -nE '\bfn (pkt|dst|dst_key|sink|flit)\b' <<< "$slot_trait"; then
  echo "FAIL: a slot holds per-packet fields again — keep them in the PacketTable entry its handle names" >&2
  exit 1
fi
echo "OK: each packet's descriptor is stored once; slots are two words"

echo "== libm-free sampler guard =="
# Every design search draws its EIR groups through one weighted shuffle
# whose keys are integer powers of a uniform draw (Candidate::key in
# crates/mcts/src/problem.rs). libm's pow was a quarter of a search, so
# non-test code in the crate may call powf only in the key's one
# fallback arm, for hop excesses of 3 and up.
powf_calls=""
for f in crates/mcts/src/*.rs; do
  tests_at=$(grep -n -m1 '^#\[cfg(test)\]' "$f" | cut -d: -f1 || true)
  while IFS=: read -r line text; do
    if [ "$line" -lt "${tests_at:-1000000}" ] && ! [[ "$text" =~ ^[[:space:]]*(//|\*) ]]; then
      powf_calls+="$f:$line:$text"$'\n'
    fi
  done < <(grep -nF 'powf' "$f" || true)
done
if [ "$(grep -c . <<< "$powf_calls")" != 1 ] \
    || ! grep -qE '^crates/mcts/src/problem\.rs:[0-9]+: *n => u\.powf\(n as f64\),$' <<< "$powf_calls"; then
  printf '%s' "$powf_calls"
  echo "FAIL: powf in the design search outside Candidate::key's fallback arm — key by integer powers" >&2
  exit 1
fi
echo "OK: the design search calls powf only in the sampler's fallback arm"

echo "== clippy =="
# Warnings are errors, as in CI. With every library item crate-private
# unless another crate reads it, the dead_code lint names the items only
# tests call.
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --release --workspace

echo "== flagship design =="
# The 8x8 design every EquiNox figure is built on, pinned in release mode
# at the command line (the debug-mode twin is the driver test against
# specs/design-8x8.txt).
# (grep reads to the end — no -q — so the driver never writes into a
# closed pipe under pipefail.)
./target/release/equinox designer --iters 4000 --seed 7 2>&1 \
    | grep -F 'links 28 | crossings 0 | RDL layers 1 | ubumps 7168' > /dev/null
echo "OK: designer --iters 4000 --seed 7 finds the 28-link, crossing-free design"

echo "== tests =="
cargo test -q --workspace

echo "== benchmark harness =="
# A workspace of its own on the crates' public entry points: its unit
# tests, and one short untraced run of every workload that must come out
# correct (each warm round runs its cells under the strict auditor), so
# a rename that breaks the harness, or a schedule that changes what a
# cell simulates, fails here rather than in the pipeline.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in sat-kmeans idle-loadlat repro-sweep; do
  cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seconds 2 --trace 0 | tail -n 1 | grep -q '"correct": true'
done
echo "OK: benchmark harness builds, passes its tests and completes a correct run of every workload"

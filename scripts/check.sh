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
if grep -rn "set_var(" --include='*.rs' crates/*/src crates/*/examples 2>/dev/null \
    | grep -vE ':[0-9]+: *(//|\*)'; then
  echo "FAIL: std::env::set_var outside tests — thread configuration through ExperimentSpec instead" >&2
  exit 1
fi
echo "OK: no set_var outside tests"

echo "== env-read guard =="
# The spec's env layer (crates/config/src/resolve.rs) is the one place
# EQUINOX_* variables are read; a library that consults the environment
# on its own escapes provenance and the resolved-spec artifact block.
if grep -rn "env::var" --include='*.rs' crates/*/src crates/*/examples 2>/dev/null \
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

echo "== scenario-name guard =="
# Only the registry knows a scenario by name: whether `all` runs one and
# whether it reads --obs-stream are fields of its entry in
# crates/bench/src/scenarios.rs, so no other file compares a name with
# ==, != or a match arm.
registry=crates/bench/src/scenarios.rs
names=$(grep -oE 'S::(paper|tool)\("[a-z0-9]+"' "$registry" | grep -oE '[a-z0-9]+"$' | tr -d '"' | paste -sd'|')
if [ -z "$names" ]; then
  echo "FAIL: no S::paper/S::tool entries found in $registry — update this guard with the registry" >&2
  exit 1
fi
lit="\"($names)\""
if grep -rnE --include='*.rs' "(==|!=) *$lit|$lit *(==|!=|=>|\|)" crates benchmark/src \
    | grep -v "^$registry:" | grep -vE ':[0-9]+: *(//|\*)'; then
  echo "FAIL: a scenario name compared outside $registry — record what the driver needs in the scenario's entry" >&2
  exit 1
fi
echo "OK: only the registry knows a scenario by name"

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
# Every library forbids `unsafe` except crates/exec, whose StepTeam is
# kept only for the benchmark's barrier probe (benchmark/src/probes.rs);
# ROADMAP item 2 deletes it and empties this list.
unsafe_exempt="crates/exec/src/lib.rs"
no_forbid=$(grep -L '^#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs | xargs)
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
    || grep -rnE 'active_(flit|credit)_links' --include='*.rs' crates benchmark/src; then
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

echo "== one-row-per-packet guard =="
# The packet tracker is the one run-path store that grows with every
# packet, so it keeps each packet as one 32-byte row (msg.rs) and hands
# PacketRecord out by value. A System keeps every row for its whole run;
# a load-latency point and the fabric scenario read a row only as its
# tail arrives, so they mark it ejected and retire the delivered prefix,
# keeping only their live window. Neither keeps a vector of its own per
# packet: the load-latency sweep sums latencies into a running total and
# fabric streams each node's packet by flit index.
per_packet=""
for f in crates/core/src/*.rs; do
  tests_at=$(grep -n -m1 '^#\[cfg(test)\]' "$f" | cut -d: -f1 || true)
  pattern='Vec<PacketRecord>'
  [ "$f" = crates/core/src/loadlat.rs ] \
    && pattern+='|Vec<(u8|u16|u32|u64|usize|f32|f64)>|Vec::(new|with_capacity)\('
  while IFS=: read -r line text; do
    if [ "$line" -lt "${tests_at:-1000000}" ] && ! [[ "$text" =~ ^[[:space:]]*(//|\*) ]]; then
      per_packet+="$f:$line:$text"$'\n'
    fi
  done < <(grep -nE "$pattern" "$f" || true)
done
# Code lines (comments dropped) of non-test loadlat.rs and of the body
# of scenarios.rs's `fn fabric`.
loadlat_code=""
while IFS= read -r text; do
  [ "$text" = "#[cfg(test)]" ] && break
  [[ "$text" =~ ^[[:space:]]*// ]] || loadlat_code+="$text"$'\n'
done < crates/core/src/loadlat.rs
fabric_code=""
while IFS= read -r text; do
  [[ -z "$fabric_code" && "$text" != "fn fabric("* ]] && continue
  [[ "$text" =~ ^[[:space:]]*// ]] || fabric_code+="$text"$'\n'
  [ "$text" = "}" ] && break
done < crates/bench/src/scenarios.rs
for call in 'tracker\.mark_ejected\(' 'tracker\.retire\(\)'; do
  grep -qE "$call" <<< "$loadlat_code" || per_packet+="crates/core/src/loadlat.rs: no ${call//\\/} call"$'\n'
  grep -qE "$call" <<< "$fabric_code" || per_packet+="crates/bench/src/scenarios.rs fabric: no ${call//\\/} call"$'\n'
done
[ -n "$fabric_code" ] || per_packet+="crates/bench/src/scenarios.rs: no fn fabric to check"$'\n'
while IFS= read -r text; do
  per_packet+="crates/bench/src/scenarios.rs fabric:$text"$'\n'
done < <(grep -E 'Vec<(Flit|u64)>|Vec::(new|with_capacity)\(|\.push\(|\.flits\(' <<< "$fabric_code" || true)
if [ -n "$per_packet" ]; then
  printf '%s' "$per_packet"
  echo "FAIL: a per-packet store outside the tracker's rows, or a load-latency point or fabric run that keeps every row — keep one 32-byte row per live packet" >&2
  exit 1
fi
echo "OK: each packet has one tracker row; load-latency points and fabric retire delivered rows and keep no per-packet vector"

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

echo "== option-mask guard =="
# The design search keeps every sampled option as one u64 mask over its
# CB's candidates in tile order (Pool in crates/mcts/src/tables.rs): a
# duplicate is one integer compare, and decoding a mask bit by bit yields
# the ids in tile order, so non-test code in tree.rs sorts nothing and
# compares no option as a slice.
tree_rs=crates/mcts/src/tree.rs
tests_at=$(grep -n -m1 '^#\[cfg(test)\]' "$tree_rs" | cut -d: -f1 || true)
if head -n "${tests_at:-1000000}" "$tree_rs" | grep -nE '\bsort|chunks|== *&\*|\[u16\] *==' \
    || ! grep -qE '^    options: Vec<u64>,$' "$tree_rs"; then
  echo "FAIL: the tree sorts a group or compares options as slices — keep each option as a u64 mask" >&2
  exit 1
fi
echo "OK: tree options are masks; the tree sorts nothing"

echo "== ln-table guard =="
# Tree::best_child reads ln N from a table of every visit count the budget
# can reach (Tree::ln in crates/mcts/src/tree.rs), built once per search,
# so that a descent step calls no libm. So non-test tree.rs calls ln only
# in that table's constructor.
ln_calls=$(head -n "${tests_at:-1000000}" "$tree_rs" | grep -nF '.ln(' | grep -vE '^[0-9]+: *(//|\*)' || true)
if [ "$(grep -c . <<< "$ln_calls")" != 1 ] \
    || ! grep -qE '^[0-9]+: *ln: \(0\.\.=cfg\.iterations\)\.map\(\|n\| \(n\.max\(1\) as f64\)\.ln\(\)\)\.collect\(\),$' <<< "$ln_calls"; then
  printf '%s\n' "$ln_calls"
  echo "FAIL: ln in tree.rs outside the ln table's constructor — read Tree::ln" >&2
  exit 1
fi
echo "OK: the UCB pass reads ln from its table"

echo "== one-setter guard =="
# Each spec field has one setter, which the CLI, environment and spec-file
# layers all call with a Raw value, and every field is registered through
# the field! macro. So non-test spec.rs names no per-layer setter, and a
# FieldDef literal appears only inside macro_rules! field.
spec_rs=crates/config/src/spec.rs
tests_at=$(grep -n -m1 '^#\[cfg(test)\]' "$spec_rs" | cut -d: -f1 || true)
setters=""
in_macro=""
n=0
while IFS= read -r line; do
  n=$((n + 1))
  [ "$n" -lt "${tests_at:-1000000}" ] || break
  [[ "$line" == "macro_rules! field {" ]] && in_macro=1
  if [[ "$line" =~ set_(str|json) ]] || { [ -z "$in_macro" ] \
      && [[ "$line" =~ FieldDef[[:space:]]*\{ ]] && ! [[ "$line" =~ struct[[:space:]]+FieldDef ]]; }; then
    setters+="$spec_rs:$n:$line"$'\n'
  fi
  [[ -n "$in_macro" && "$line" == "}" ]] && in_macro=""
done < "$spec_rs"
if [ -n "$setters" ]; then
  printf '%s' "$setters"
  echo "FAIL: a spec field parses its value per layer, or is registered outside field! — give it one setter over Raw" >&2
  exit 1
fi
echo "OK: every spec field has one setter, registered through field!"

echo "== one-obs-block guard =="
# The observability artifact is one block written by one emitter
# (SystemObs::to_json in crates/core/src/obs.rs), so non-test code holds
# exactly one "equinox.obs/v…" schema literal and no second block's
# emitter or artifact key.
obs_hits=""
while IFS= read -r f; do
  tests_at=$(grep -n -m1 '^#\[cfg(test)\]' "$f" | cut -d: -f1 || true)
  while IFS=: read -r line text; do
    if [ "$line" -lt "${tests_at:-1000000}" ] && ! [[ "$text" =~ ^[[:space:]]*(//|\*) ]]; then
      obs_hits+="$f:$line:$text"$'\n'
    fi
  done < <(grep -nE '"equinox\.obs/v|obs_json_v2|"obs_v2"' "$f" || true)
done < <(find crates/*/src -name '*.rs' | sort)
if [ "$(grep -c . <<< "$obs_hits")" != 1 ] || ! grep -qF '"equinox.obs/v' <<< "$obs_hits"; then
  printf '%s' "$obs_hits"
  echo "FAIL: expected one obs block schema literal and no second block — extend SystemObs::to_json instead" >&2
  exit 1
fi
echo "OK: one obs block, written by one emitter"

echo "== two-entry-cache guard =="
# The cache is cells (run_) and designs (design_); the driver resolves the
# spec, runs the scenario and writes the artifact. So non-test code names
# no "equinox.cache/v…" block and no "artifact" entry kind, and the
# driver calls nothing in equinox_bench::cache.
cache_hits=""
while IFS= read -r f; do
  tests_at=$(grep -n -m1 '^#\[cfg(test)\]' "$f" | cut -d: -f1 || true)
  while IFS=: read -r line text; do
    if [ "$line" -lt "${tests_at:-1000000}" ] && ! [[ "$text" =~ ^[[:space:]]*(//|\*) ]]; then
      cache_hits+="$f:$line:$text"$'\n'
    fi
  done < <(grep -nE '"equinox\.cache/v|"artifact"' "$f" || true)
done < <(find crates/*/src -name '*.rs' | sort)
cache_hits+=$(grep -nE '\bcache::' crates/bench/src/bin/equinox.rs | grep -vE ':[0-9]+: *(//|\*)' || true)
if [ -n "$cache_hits" ]; then
  printf '%s\n' "$cache_hits"
  echo "FAIL: a whole-artifact cache is back — let the run_ and design_ entries serve the scenario" >&2
  exit 1
fi
echo "OK: the cache holds cells and designs; the driver runs every scenario"

echo "== replay-restore guard =="
# A snapshot is a digest of the machine's state, not something decoded:
# System::restore (crates/core/src/system.rs) rebuilds the machine from
# its own config and replays it to the snapshot's cycle. So non-test code
# declares no other fn restore*, and the Snap trait only writes.
restore_hits=""
while IFS= read -r f; do
  tests_at=$(grep -n -m1 '^#\[cfg(test)\]' "$f" | cut -d: -f1 || true)
  while IFS=: read -r line text; do
    if [ "$line" -lt "${tests_at:-1000000}" ] && ! [[ "$text" =~ ^[[:space:]]*(//|\*) ]]; then
      restore_hits+="$f:$line:$text"$'\n'
    fi
  done < <(grep -nE '\bfn restore[A-Za-z0-9_]*\b' "$f" || true)
done < <(find crates/*/src -name '*.rs' | sort)
snap_fns=""
in_trait=""
while IFS= read -r line; do
  [[ "$line" == "pub trait Snap "* ]] && in_trait=1
  if [ -n "$in_trait" ]; then
    [[ "$line" =~ ^[[:space:]]*fn\  ]] && snap_fns+="$line"$'\n'
    [ "$line" = "}" ] && break
  fi
done < crates/snap/src/lib.rs
if [ "$(grep -c . <<< "$restore_hits")" != 1 ] \
    || ! grep -qE '^crates/core/src/system\.rs:[0-9]+: +pub fn restore\(&mut self, bytes: &\[u8\]\)' <<< "$restore_hits" \
    || [ "$(grep -c . <<< "$snap_fns")" != 1 ] || ! grep -qE '^ +fn snap\(' <<< "$snap_fns"; then
  printf '%s' "$restore_hits"
  printf 'Snap declares:\n%s\n' "$snap_fns"
  echo "FAIL: a simulator state decoder is back — let System::restore replay the build instead" >&2
  exit 1
fi
echo "OK: System::restore replays; nothing else decodes simulator state"

echo "== clippy =="
# Warnings are errors, as in CI. With every library item crate-private
# unless another crate reads it, the dead_code lint names the items only
# tests call.
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --release --workspace

echo "== flagship design =="
# The 8x8 design every EquiNox figure is built on, pinned in release mode
# at the command line: the summary line, whose link count (one per EIR
# in specs/design-8x8.txt) and µbumps (256 per 128-bit link, two per
# wire) are derived from that file, and every line of the file in the
# artifact's design_text, each ending where the JSON string has its "\n"
# (the debug-mode twin is the driver test against the same file).
# (grep reads to the end — no -q — so the driver never writes into a
# closed pipe under pipefail.)
flagship=$(mktemp)
trap 'rm -f "$flagship"' EXIT
links=0
while read -r -a field; do
  # "cb X,Y eirs E1 E2 ...": one link per EIR.
  if [ "${field[0]}" = cb ]; then links=$((links + ${#field[@]} - 3)); fi
done < specs/design-8x8.txt
summary="links $links | crossings 0 | RDL layers 1 | ubumps $((links * 256))"
if ! ./target/release/equinox designer --iters 4000 --seed 7 --out "$flagship" 2>&1 \
    | grep -F "$summary" > /dev/null; then
  echo "FAIL: the release design search does not report '$summary'" >&2
  exit 1
fi
pinned=0
while IFS= read -r line; do
  if ! grep -F -- "$line\\n" "$flagship" > /dev/null; then
    echo "FAIL: the release design search lost '$line' of specs/design-8x8.txt" >&2
    exit 1
  fi
  pinned=$((pinned + 1))
done < specs/design-8x8.txt
if [ "$pinned" -lt 10 ]; then
  echo "FAIL: specs/design-8x8.txt holds $pinned lines, expected a header, the mesh and 8 CBs" >&2
  exit 1
fi
echo "OK: designer --iters 4000 --seed 7 finds the $links-link, crossing-free design of specs/design-8x8.txt"
# A search sizes its tree for the whole budget up front, so one past
# ITERS_LIMIT (crates/config/src/spec.rs) is refused by name before any
# search starts.
status=0
refusal=$(./target/release/equinox designer --iters 1000001 2>&1 >/dev/null) || status=$?
if [ "$status" != 2 ] || ! grep -qF "'--iters': must be <= 1000000, got 1000001" <<< "$refusal"; then
  echo "$refusal" >&2
  echo "FAIL: designer --iters 1000001 exited $status without naming --iters" >&2
  exit 1
fi
echo "OK: designer --iters 1000001 exits 2 naming --iters"

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

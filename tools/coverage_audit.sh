#!/usr/bin/env bash
# coverage_audit.sh — count the src/ lines that no non-test entry point runs.
#
# Usage: tools/coverage_audit.sh [BUILD_DIR]      (default: build-coverage)
#
# Configures BUILD_DIR as a separate tree compiled with `--coverage -O1`
# (through CMAKE_CXX_FLAGS; GTest is switched off so no test target is
# built), builds the examples, both CLIs and the benches, and runs every
# non-test entry point in a throwaway work directory:
#   - the five examples;
#   - divsec_sweep run, shard, plan, --tasks, merge, adapt, replay,
#     inspect, --family, --family-json and a tuned --threat;
#   - divsec_report in its default, --engine campaign and --from-merged
#     modes;
#   - bench_e1 … bench_e13 at a small --benchmark_min_time, and
#     bench_e5 --fleet-smoke.
# Then gcov reads the counters and the script prints, per src/**/*.cpp
# file, the executable lines that never ran ("unrun/executable"), most
# unrun first, and the total. Tests never run here, so a line that only a
# test reaches counts as unrun. Nothing is gated on the numbers.
#
# Needs cmake, g++, gcov and google-benchmark (for the benches). Takes a
# few minutes on 4 cores; set JOBS to change the build parallelism.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="$(mkdir -p "${1:-$ROOT/build-coverage}" && cd "${1:-$ROOT/build-coverage}" && pwd)"
JOBS="${JOBS:-4}"

# Runs a command with its output appended to a log; on failure, shows the
# log's tail and stops the audit (its counts would be meaningless).
logged() {
  local log="$1"
  shift
  echo "+ $*" >> "$log"
  "$@" >> "$log" 2>&1 || {
    echo "coverage_audit: failed: $*" >&2
    tail -n 30 "$log" >&2
    exit 1
  }
}

: > "$BUILD/build.log"
logged "$BUILD/build.log" cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O1" -DCMAKE_DISABLE_FIND_PACKAGE_GTest=ON
logged "$BUILD/build.log" cmake --build "$BUILD" -j "$JOBS"

# Counters accumulate across runs: start from zero.
find "$BUILD" -name '*.gcda' -delete

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

LOG="$BUILD/entry_points.log"
: > "$LOG"
run() { logged "$LOG" "$@"; }

for ex in quickstart stuxnet_campaign diversity_planning scope_cooling \
          fleet_campaign; do
  run "$BUILD/example_$ex"
done

SWEEP="$BUILD/divsec_sweep"
ARGS=(--preset plant_small --replications 600 --superblock 256)
run "$SWEEP" run "${ARGS[@]}" --out ref --metrics ref.metrics.json \
  --trace ref.trace.json
for i in 0 1; do
  run "$SWEEP" run "${ARGS[@]}" --shard "$i/2" --out "s$i.state"
done
run "$SWEEP" merge --out m --bench-json BENCH_merge.json s0.state s1.state
run cmp ref_measurements.csv m_measurements.csv
run "$SWEEP" plan "${ARGS[@]}" --shards 2 --weights s0.state --out p.tasks
for i in 0 1; do
  run "$SWEEP" run "${ARGS[@]}" --tasks p.tasks --shard "$i" --out "t$i.state"
done
run "$SWEEP" merge --out tm t0.state t1.state
run "$SWEEP" adapt "${ARGS[@]}" --precision 0.05 --out a
for i in 0 1; do
  run "$SWEEP" run --replay a_adaptive.state --shard "$i/2" --out "r$i.state"
done
run "$SWEEP" merge --out rm r0.state r1.state
run "$SWEEP" run --replay a_adaptive.state --out rr
run "$SWEEP" inspect m_merged.state
run "$SWEEP" inspect s0.state
run "$SWEEP" inspect a_adaptive.state --metrics ref.metrics.json
run "$SWEEP" run --family brownfield:nodes=96 --replications 256 --out fam
run "$SWEEP" run --family-json '{"family":"hub-spoke","nodes":128,"sites":4}' \
  --replications 256 --out famj
run "$SWEEP" run --preset scope_cooling --replications 512 \
  --threat stuxnet:scan=2,dwell=0.5,stealth=0.8,channels=usb+http --out thr

REPORT="$BUILD/divsec_report"
run "$REPORT"
run "$REPORT" --engine campaign
run "$REPORT" --from-merged m_merged.state --out fm

# A bench exits 1 when one of its timing gates fails, which the
# instrumented build can trip; its lines ran all the same, so the exit
# status is logged and the audit goes on.
run_bench() {
  echo "+ $*" >> "$LOG"
  "$@" >> "$LOG" 2>&1 || echo "(exit $? — timing gates mean nothing here)" >> "$LOG"
}
for bench in "$BUILD"/bench_e*; do
  run_bench "$bench" --benchmark_min_time=0.01
done
run_bench "$BUILD/bench_e5_compromised_ratio" --fleet-smoke

# gcov per library object: count "#####" (never ran) and "=====" (an
# exceptional path that never ran) against every line with a count.
OBJ="$BUILD/CMakeFiles/divsec.dir/src"
GCOV_OUT="$WORK/gcov"
mkdir -p "$GCOV_OUT"
total_unrun=0
total_exec=0
rows=()
while IFS= read -r gcno; do
  rel="${gcno#"$OBJ"/}"
  rel="${rel%.gcno}"  # e.g. attack/campaign.cpp
  rm -f "$GCOV_OUT"/*.gcov
  (cd "$GCOV_OUT" && gcov -o "$(dirname "$gcno")" "$gcno" > /dev/null 2>&1) || true
  file="$GCOV_OUT/$(basename "$rel").gcov"
  [[ -f "$file" ]] || continue  # no executable lines (e.g. only constants)
  read -r unrun exec < <(awk -F: '
    { c = $1; gsub(/ /, "", c) }
    c == "-" { next }
    c == "#####" || c == "=====" { u++ }
    { e++ }
    END { print u + 0, e + 0 }' "$file")
  total_unrun=$((total_unrun + unrun))
  total_exec=$((total_exec + exec))
  rows+=("$unrun $exec src/$rel")
done < <(find "$OBJ" -name '*.cpp.gcno' | sort)

echo "unrun/executable lines per file (non-test entry points only):"
printf '%s\n' "${rows[@]}" | sort -k1,1nr -k3 |
  awk '{ printf "  %5d/%-5d %s\n", $1, $2, $3 }'
echo "total: $total_unrun of $total_exec executable lines in src/*.cpp never ran"

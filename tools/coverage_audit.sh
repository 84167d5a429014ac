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
#     inspect, --family, --family-json and a tuned --threat, and a run of
#     every fixed preset and variant policy;
#   - divsec_report in its default, --engine campaign and --from-merged
#     modes;
#   - bench_e1 … bench_e13 at a small --benchmark_min_time, and
#     bench_e5 --fleet-smoke.
# Then gcov reads the counters and the script prints, per src/**/*.cpp
# file, the executable lines that never ran ("unrun/executable"), most
# unrun first, and the total; then every divsec:: function of src/ that
# was never entered, per file, with its executable line count (`gcov -f
# -m`). A function emitted in several translation units (an inline or
# template one) is listed once, under the first src/ file, and only if no
# unit ran it, the examples', CLIs' and benches' own units included.
# Tests never run here, so a line or function that only a test reaches
# counts as unrun. Nothing is gated on the numbers.
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
run "$SWEEP" run --preset paper_two_machines --replications 256 --out p2m
run "$SWEEP" run --preset plant_medium --policies mono,rotation \
  --replications 256 --out pm

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
FUNCS="$WORK/functions.tsv"  # file, function, % lines run, lines
: > "$FUNCS"
# Appends one "file, function, % lines run, lines" row per function of
# the object whose counters $1 names, filed under $2.
list_functions() {
  (cd "$GCOV_OUT" && gcov -f -m -o "$(dirname "$1")" "$1" 2> /dev/null) |
    awk -v rel="$2" '
      /^Function / { name = substr($0, 11, length($0) - 11); next }
      name != "" && /^Lines executed:/ {
        split($0, f, /[:% ]+/)
        printf "%s\t%s\t%s\t%s\n", rel, name, f[3], $NF
        name = ""
      }
      /^File / { name = "" }' >> "$FUNCS" || true
}
total_unrun=0
total_exec=0
rows=()
while IFS= read -r gcno; do
  rel="${gcno#"$OBJ"/}"
  rel="${rel%.gcno}"  # e.g. attack/campaign.cpp
  rm -f "$GCOV_OUT"/*.gcov
  list_functions "$gcno" "src/$rel"
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

# The entry points' own units can call an inline src/ function too.
while IFS= read -r gcno; do
  list_functions "$gcno" entry-point
done < <(find "$BUILD/CMakeFiles" -name '*.cpp.gcno' -not -path "$OBJ/*" | sort)
rm -f "$GCOV_OUT"/*.gcov

echo
echo "divsec:: functions never called, per file (executable lines):"
# A demangled template instantiation leads with its return type, so the
# qualified name is what follows the last space outside <...>, {...} and
# before the parameter list.
awk -F'\t' '
  function qualified(s,   i, c, depth, start) {
    gsub(/\(anonymous namespace\)/, "{anonymous}", s)
    start = 1
    for (i = 1; i <= length(s); ++i) {
      c = substr(s, i, 1)
      if (c == "<" || c == "{") ++depth
      else if (c == ">" || c == "}") --depth
      else if (depth == 0 && c == "(") break
      else if (depth == 0 && c == " ") start = i + 1
    }
    return substr(s, start)
  }
  qualified($2) !~ /^divsec::/ { next }
  !($2 in file) { file[$2] = $1; lines[$2] = $4; order[++n] = $2 }
  $3 + 0 > 0 { ran[$2] = 1 }
  END {
    for (i = 1; i <= n; ++i)
      if (!(order[i] in ran) && file[order[i]] ~ /^src\//)
        printf "%s\t%d\t%s\n", file[order[i]], lines[order[i]], order[i]
  }' "$FUNCS" | LC_ALL=C sort -t$'\t' -k1,1 -k2,2nr |
  awk -F'\t' '
    $1 != last { print "  " $1; last = $1 }
    { printf "    %5d  %s\n", $2, $3; ++count; total += $2 }
    END { printf "total: %d functions, %d executable lines\n", count, total }'

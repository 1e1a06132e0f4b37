#!/usr/bin/env bash
# Paper-fidelity gate: runs every figure, table, appendix, ablation and
# extension bench (the binaries cmake/bench.cmake declares, less the three
# performance benches) and fails when any of them exits non-zero or prints
# a `CHECK ... FAIL` line. They run in parallel, except the three whose
# CHECK lines compare wall times: those run alone afterwards.
#
# Usage: scripts/paper_checks.sh [BUILD_DIR] [JOBS]
#   BUILD_DIR  build tree holding bench/ and examples/ (default: build)
#   JOBS       benches run at once (default: nproc)
#
# Traces and grid-searched parameters are cached in $SCD_TRACE_DIR
# (default: ./traces). Missing traces are generated one after another
# before the parallel run: the trace cache writes its files in place, so
# benches that start on a cold directory together would race on them.
# Each bench's output goes to $PAPER_LOG_DIR (default: ./paper-logs) as
# <bench>.log; the summary prints each bench's wall time and status.

set -u

cd "$(dirname "$0")/.."
ROOT=$PWD
BUILD=$(cd "${1:-build}" && pwd) || exit 2
JOBS=${2:-$(nproc)}
export SCD_TRACE_DIR=${SCD_TRACE_DIR:-$ROOT/traces}
LOGS=${PAPER_LOG_DIR:-$ROOT/paper-logs}
mkdir -p "$SCD_TRACE_DIR" "$LOGS"
rm -f "$LOGS"/*.log "$LOGS"/*.status

# The performance benches gate throughput, not the paper's claims.
BENCHES=$(sed -n 's/^scd_add_bench(\(bench_[a-z0-9_]*\)).*/\1/p' \
  cmake/bench.cmake |
  grep -v -x -e bench_kernel_throughput -e bench_obs_overhead \
    -e bench_parallel_ingest)
# The longest bench first, so it does not start last.
BENCHES=$(printf '%s\n' bench_gridsearch_vs_random $BENCHES | awk '!seen[$0]++')

missing=0
for b in $BENCHES; do
  if [ ! -x "$BUILD/bench/$b" ]; then
    echo "paper_checks: $BUILD/bench/$b is not built" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] || exit 2

# Seconds since the date +%s.%N stamp $1, to 0.1 s.
since() { awk -v a="$1" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }'; }

PROFILES=$(sed -n 's/^ *"\(r[0-9][0-9]\)", ".*/\1/p' \
  src/traffic/router_profiles.cpp)
if [ -z "$PROFILES" ]; then
  echo "paper_checks: no router profiles found in router_profiles.cpp" >&2
  exit 2
fi
start=$(date +%s.%N)
for profile in $PROFILES; do
  if [ ! -s "$SCD_TRACE_DIR/$profile.scdt" ]; then
    "$BUILD/examples/trace_inspect" gen "$profile" "$SCD_TRACE_DIR" || exit 2
  fi
done
echo "traces ready in $(since "$start") s"

run_one() {
  local b=$1 t0 rc
  t0=$(date +%s.%N)
  "$BUILD/bench/$b" > "$LOGS/$b.log" 2>&1
  rc=$?
  echo "$rc $(since "$t0")" > "$LOGS/$b.status"
}
export -f run_one since
export BUILD LOGS

# These compare wall times in their CHECK lines, which benches running
# beside them would skew: they run one at a time after the others.
TIMED="bench_table1_opcost bench_ext_key_recovery bench_ext_packet_stream"
start=$(date +%s.%N)
printf '%s\n' $BENCHES | grep -v -x -F "$(printf '%s\n' $TIMED)" |
  xargs -P "$JOBS" -I{} bash -c 'run_one "$@"' _ {}
for b in $TIMED; do run_one "$b"; done
wall=$(since "$start")

failed=0
checks=0
sum=0
for b in $BENCHES; do
  read -r rc secs < "$LOGS/$b.status"
  fails=$(grep -c '^CHECK .*: FAIL' "$LOGS/$b.log")
  checks=$((checks + $(grep -c '^CHECK ' "$LOGS/$b.log")))
  sum=$(awk -v a="$sum" -v b="$secs" 'BEGIN { print a + b }')
  status=PASS
  if [ "$rc" -ne 0 ] || [ "$fails" -ne 0 ]; then
    status="FAIL (exit $rc, $fails failing CHECK lines)"
    failed=$((failed + 1))
    grep '^CHECK .*: FAIL' "$LOGS/$b.log" | sed 's/^/    /'
  fi
  printf '%-40s %8.1f s  %s\n' "$b" "$secs" "$status"
done
printf '\n%d benches, %d CHECK lines, %d failing benches; wall %.1f s, ' \
  "$(printf '%s\n' $BENCHES | wc -l)" "$checks" "$failed" "$wall"
printf 'sum of bench times %.1f s\n' "$sum"
[ "$failed" -eq 0 ]

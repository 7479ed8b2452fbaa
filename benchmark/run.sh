#!/usr/bin/env bash
# Builds the repository benchmark and runs it.
#
#   bash benchmark/run.sh [--workload W]... [--seed S] [--trace 0|1]
#                         [--quick] [--out DIR] [--seconds 20]
#
# Configures benchmark/ (which builds src/ with the top level's defaults)
# into build-bench/, runs the statistics selftest and stops if it fails,
# then runs each workload in its own process: the four of them in turn
# when no --workload is given.  Each run measures 20 s (4 s with --quick);
# --seconds is accepted so benchmark runners can pass the definition's
# run_seconds, and any other value is refused.  Every run prints one
# "name value unit" line per metric and ends with a one-line JSON result;
# its full result file (provenance, per-phase detail, ledger) goes to
# DIR/results and a traced run's Chrome trace to DIR/traces (DIR defaults
# to build-bench).  Build and selftest output goes to stderr.
#
# Exit status: that of the last workload that failed (1 failed op or
# error, 2 invalid measurement), else 0.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/build-bench"

selected=()
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload)
      selected+=("$2")
      shift 2
      ;;
    --seed | --seconds | --trace | --out)
      args+=("$1" "$2")
      shift 2
      ;;
    --quick)
      args+=("$1")
      shift
      ;;
    *)
      echo "run.sh: unknown argument $1" >&2
      exit 64
      ;;
  esac
done
if [ ${#selected[@]} -eq 0 ]; then
  selected=(wire_vgg batch_vgg8 mixed_zoo cycle_sim)
fi

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" \
  --target tsca_benchmark >&2
"$build/tsca_benchmark" --selftest >&2

TSCA_BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export TSCA_BENCH_COMMIT

status=0
for w in "${selected[@]}"; do
  "$build/tsca_benchmark" --workload "$w" --out "$build" \
    ${args[@]+"${args[@]}"} || status=$?
done
exit "$status"

#!/usr/bin/env bash
# Runs every figure/table/ablation/extension preset in one camps_bench
# invocation, then the component micro-benchmarks, and tees the combined
# output.
# Usage: scripts/run_all_benches.sh [outfile] [extra camps_bench args...]
# e.g. scripts/run_all_benches.sh bench_output.txt --quick --jobs=4
#
# Extra args go to camps_bench only; --jobs=N runs the simulations on N
# worker threads (tables are byte-identical for any N, so parallelism is
# purely a wall-clock lever). One invocation lets the presets share runs:
# fig5-9 all read the same (workload, scheme) simulations. The
# micro-benchmarks take their own flags.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench_output.txt}"
shift || true

{
  echo "### camps_bench all"
  build/bench/camps_bench all --quiet "$@"
  echo
  echo "### bench_micro_components"
  # google-benchmark >= 1.8 wants a unit suffix; older versions reject it.
  build/bench/bench_micro_components --benchmark_min_time=0.05s 2>/dev/null ||
    build/bench/bench_micro_components --benchmark_min_time=0.05
} 2>&1 | tee "$out"

#!/usr/bin/env bash
# Runs every figure/table/ablation/extension preset in one camps_bench
# invocation and tees the output.
# Usage: scripts/run_all_benches.sh [outfile] [extra camps_bench args...]
# e.g. scripts/run_all_benches.sh bench_output.txt --quick --jobs=4
#
# Extra args go to camps_bench; --jobs=N runs the simulations on N worker
# threads (tables are byte-identical for any N, so parallelism is purely a
# wall-clock lever). One invocation lets the presets share runs: fig5-9 all
# read the same (workload, scheme) simulations.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench_output.txt}"
shift || true

{
  echo "### camps_bench all"
  build/bench/camps_bench all --quiet "$@"
} 2>&1 | tee "$out"

#!/bin/bash
# Runs the benchmark the way its acceptance rule does: two sets of RUNS
# runs of every workload, each run on another seed, then holds the two
# sets against the bounds in BENCHMARK.json (go run -C bench . -compare).
#
#   bench/repeat.sh [RUNS=5] [OUT=bench/out/repeat]
#
# One run measures for run_seconds of BENCHMARK.json; two sets of five
# take about 25 minutes, two sets of ten (what the table in README.md
# is from) twice that.
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${1:-5}
out=${2:-bench/out/repeat}
workloads=$(sed -n 's/.*{"name": "\([a-z0-9]*\)", "why".*/\1/p' BENCHMARK.json)

rm -rf "$out"
mkdir -p "$out/A" "$out/B"
out=$(cd "$out" && pwd)
seed=0
for set in A B; do
  for ((i = 0; i < runs; i++)); do
    seed=$((seed + 1))
    for w in $workloads; do
      echo "set $set, seed $seed, $w" >&2
      # The last two lines: the plain medians and the result.
      go run -C bench . -workload "$w" -seed "$seed" -trace 0 | tail -n 2 >>"$out/$set/$w.jsonl"
    done
  done
done
go run -C bench . -compare "$out/A" "$out/B"

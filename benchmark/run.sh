#!/usr/bin/env bash
# run.sh — build the benchmark driver from the checkout's source and run it.
#
#   bash benchmark/run.sh --workload cold_scan --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under <checkout>/.bench_build:
# the Go build cache, the driver and daemon binaries, fixtures, daemon logs.
# In a directory that holds no go.mod (only BENCHMARK.json and benchmark/)
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

cd "$root"
go build -o "$build/bin/lazybench" ./benchmark
exec "$build/bin/lazybench" "$@"

#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache and binary under .bench_build/) and runs
# it with the driver's arguments. Run from the repository root.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"

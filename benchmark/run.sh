#!/usr/bin/env bash
# Build file of the benchmark: compiles ./benchmark from the checkout's
# own sources into .bench_build/ (Go build cache and temporaries
# included, so nothing is written outside the checkout) and runs it with
# the arguments given. Run from the repository root:
#
#   bash benchmark/run.sh --workload torus16_dense --seed 1 --seconds 8 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/daelite-benchmark" ./benchmark
exec "$build/daelite-benchmark" "$@"

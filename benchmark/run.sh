#!/bin/sh
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it with the driver's arguments. The build cache, the linker's
# work directory and the binary all stay under .bench_build in the
# checkout, so a run reads and writes nothing outside it.
# By hand, `go run ./benchmark ...` does the same with the user's cache.
set -e
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

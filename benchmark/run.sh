#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json "command"). Builds the
# benchmark from the checkout it is started in and runs it with the driver's
# arguments. Everything the build writes — compiler cache, temporaries, the
# binary, span files — stays under .bench_build/ in that checkout.
#
# By hand, `go run ./benchmark [flags]` from the repository root is the same.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/avabench" ./benchmark
exec "$build/avabench" "$@"

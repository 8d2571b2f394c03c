#!/usr/bin/env bash
# Builds the benchmark (package repro/benchmark of the root module) from
# source inside the checkout and runs it with the arguments given (see
# README.md). The driver that gates BENCHMARK.json lets a run write only
# inside its checkout, so Go's build cache is kept in .bench_build/ beside the
# binary; traces and full results go to benchmark/out/. The first call in a
# fresh checkout compiles the standard library into that cache, which takes
# 10-20 s on two cores.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"

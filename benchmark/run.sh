#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload sweep-cold --seed 7 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, temp dirs, results.json, traces) stays under
# .bench_build in that directory. Without the repository around benchmark/
# the build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "$root/benchmark" build -o "$build/create-benchmark" .
exec "$build/create-benchmark" "$@"

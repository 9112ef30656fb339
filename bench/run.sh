#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Every build output and temporary file stays under .bench_build/ in the checkout,
# and the Go toolchain is kept offline (no toolchain or module downloads).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the toolchain's telemetry counters
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/numaws-bench" .)
exec "$out/numaws-bench" "$@"

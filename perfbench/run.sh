#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; all
# arguments go to the benchmark. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload philly-fifo --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build/ in the checkout, and nothing is
# fetched: the module has no dependencies outside the repository.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"

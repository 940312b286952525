#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload sim --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under the current directory:
# the Go build cache, module cache, toolchain config (telemetry counters),
# the binary and temporary files go to .bench_build/, span files to
# .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$build/mbsbench" .)
exec "$build/mbsbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload cq_city --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  The build cache and the binary stay in
# .bench_build/ under the current directory, so nothing is written outside
# the checkout; without the program's source next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
  GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" "$@"

#!/usr/bin/env bash
# Builds asymperf from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload ext-classic-p1 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary, the workloads' working files and the trace output. The bench
# module resolves the asymsort module through `replace asymsort => ../`,
# so outside a full checkout the build fails and nothing is measured.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

go build -C "$root/bench" -o "$build/asymperf" ./asymperf
exec "$build/asymperf" -build-dir "$build" "$@"

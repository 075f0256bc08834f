#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload round_trap --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write — binary, Go build cache,
# scratch state directories — goes under .bench_build/ in the checkout;
# traces go to benchmark/out/. Nothing is fetched: the module has no
# dependencies outside this repository.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"

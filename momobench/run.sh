#!/usr/bin/env bash
# Builds momobench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash momobench/run.sh --workload mul_sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, server data
# directories and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/momobench" && go build -o "$out/momobench" .)
exec "$out/momobench" "$@"

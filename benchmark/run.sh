#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload dragonfly-open --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout (build cache, binary, profiles, spans). GOTOOLCHAIN and
# GOPROXY are pinned so the build never reaches for the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C benchmark build -o "$build/itbbench" .
exec "$build/itbbench" "$@"

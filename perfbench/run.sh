#!/usr/bin/env bash
# Builds the potsim benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload mesh64-pots --seed 1 --seconds 25 --trace 0
#
# Every build artifact (Go build cache, binary, scratch data, traces)
# stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

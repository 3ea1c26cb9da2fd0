#!/usr/bin/env bash
# Builds twistd and the benchmark driver into .bench_build/ (outside any
# timed phase), then runs the driver with the given arguments:
#
#   bash twistbench/run.sh --workload cold-run --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every Go cache, config and build output
# stays under .bench_build/ so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
mkdir -p "$out/tmp"

go build -o "$out/twistd" ./cmd/twistd
go -C twistbench build -o "$out/twistbench" .
exec "$out/twistbench" -twistd "$out/twistd" -out "$out" "$@"

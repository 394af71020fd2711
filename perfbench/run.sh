#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it:
#   bash perfbench/run.sh --workload tree|bulk|mixed --seed N --seconds S --trace 0|1
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

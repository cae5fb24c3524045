#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload.
#
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 8 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# run's scratch files all live under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -scratch "$out" "$@"

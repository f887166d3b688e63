#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.:
#
#   bash _perfbench/run.sh --workload fleet-5k --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build caches and outputs stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

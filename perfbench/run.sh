#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload global-dblp --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
# Outside a full checkout (no library sources next to perfbench/) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" -out "$out/results" "$@"

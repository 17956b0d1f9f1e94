#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload predict-measure --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay
# under .bench_build/ in the current directory. Outside a full
# checkout (no ../go.mod for the replace directive) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

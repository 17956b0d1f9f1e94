#!/usr/bin/env bash
# bench.sh — run the engine benchmark suite and emit a JSON record.
#
# Runs BenchmarkRunParallel (end-to-end blocks/s; its sub-benchmarks
# cover every leg of the matrix: kernel ∈ {matmul16, spmv-ell} ×
# mode ∈ {replay, noreplay} × P ∈ {1, NumCPU}) plus the per-layer
# microbenchmarks (warp step, bank conflicts, coalescing) with
# -benchmem, and converts the results to a JSON array of
# {name, ns_per_op, ..., B_per_op, allocs_per_op} records so CI and
# future PRs can diff throughput and allocation counts. The default
# output, bench-out.json, is gitignored so local and CI runs never
# overwrite a committed BENCH_*.json record; pass OUT to write one.
#
# The replay/noreplay pairs measure the homogeneous-block replay
# engine against forced live simulation on the same inputs; the
# p1/pN pairs measure worker-sharding scaling.
#
# Usage:
#   scripts/bench.sh               # full run (benchtime 2x for the big bench)
#   BENCHTIME=1x scripts/bench.sh  # CI smoke run
#   OUT=BENCH_8.json scripts/bench.sh  # write a record to commit
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2x}"
OUT="${OUT:-bench-out.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

NPROC="$(go env GOMAXPROCS 2>/dev/null || nproc || echo 1)"
if [ "${NPROC}" -le 1 ]; then
  echo "==================================================================" >&2
  echo "WARNING: this host exposes only 1 CPU. The P=NumCPU legs collapse" >&2
  echo "into duplicates of the P=1 legs (Go suffixes them #01), so the"    >&2
  echo "numbers below say NOTHING about parallel scaling. Re-run on a"     >&2
  echo "multi-core host before drawing scaling conclusions."               >&2
  echo "==================================================================" >&2
fi

{
  go test -run - -bench BenchmarkRunParallel -benchtime "$BENCHTIME" -benchmem .
  go test -run - -bench BenchmarkWarpStep -benchmem ./internal/barra/
  go test -run - -bench BenchmarkBankTransactions -benchmem ./internal/bank/
  go test -run - -bench BenchmarkCoalesceHalfWarp -benchmem ./internal/coalesce/
} | tee "$TMP"

awk '
  /^Benchmark/ {
    printf "%s  {\"name\":\"%s\",\"iterations\":%s", sep, $1, $2
    sep = ",\n"
    for (i = 3; i + 1 <= NF; i += 2) {
      unit = $(i + 1)
      gsub(/\//, "_per_", unit)
      gsub(/[^A-Za-z0-9_]/, "_", unit)
      printf ",\"%s\":%s", unit, $i
    }
    printf "}"
  }
  BEGIN { print "[" }
  END   { print "\n]" }
' "$TMP" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"

#!/usr/bin/env bash
# Entry point of the benchmark contract (BENCHMARK.json): builds csperf from
# source into .bench_build inside the checkout, keeping the Go build cache
# there too so that nothing outside the checkout is written, and runs it with
# the arguments given (--workload, --seed, --seconds, --trace).
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
# The runtime setting every measured process runs under; see perf.GODEBUG.
export GODEBUG=madvdontneed=0
go build -o "$out/csperf" ./cmd/csperf
exec "$out/csperf" -dir "$out" "$@"

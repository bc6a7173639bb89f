#!/usr/bin/env bash
# Builds the benchmark and the two service daemons from this checkout's
# sources, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C perfbench -o "$out/perfbench" .
go build -o "$out/" ./cmd/cooldispatchd ./cmd/coolserved
exec "$out/perfbench" -bin "$out" -out "$out" "$@"

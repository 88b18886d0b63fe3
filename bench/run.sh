#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from anywhere; it
# works in the repository root, where the benchmark keeps its build,
# results and traces under .bench_build/.
#
#   bash bench/run.sh -workload sweep -seed 1 -seconds 20 -trace 0
#   bash bench/run.sh -seed 1                 # every workload, in child processes
#   bash bench/run.sh -repeat 3 -seed 1       # medians and spreads
#
# The Go build cache and temporary files stay under .bench_build/ too,
# so a run reads and writes nothing outside the checkout. The build
# uses the installed toolchain only and never downloads.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"

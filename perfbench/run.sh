#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload fit-10k --seed 1 --seconds 25 --trace 0
#
# Build outputs, fixtures and span files all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"

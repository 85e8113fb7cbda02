#!/usr/bin/env bash
# Builds the benchmark from source inside this checkout and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the checkout. The Go build cache, the binary, the
# disk engines' scratch data and span dumps all stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"

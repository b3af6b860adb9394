#!/bin/sh
# Builds the OMOS benchmark from the checkout's source and runs it.
# Run from the repository root; every argument is passed through:
#
#   sh perfbench/run.sh --workload warm-exec --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary files, the binary and the benchmark's
# scratch stores all stay under .bench_build/ in the current directory.
set -eu
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"

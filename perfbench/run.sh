#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload analyze-small --seed 1 --seconds 15 --trace 0
#
# Everything it writes (the Go build cache, the binary, generated inputs and
# daemon state) stays under .bench_build/ in the checkout. Build output goes
# to standard error, so the result line stays the last line of standard
# output.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root; every flag is passed through, e.g.
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch state all
# live under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off
export GOCACHE="$out/gocache" TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, from the repository root:
#
#   bash bench/run.sh --workload predict --seed 1 --seconds 30 --trace 0
#
# Every build artefact (Go build cache, binaries, fixtures, results) stays
# under .bench_build/ in the checkout, and no module is ever downloaded.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"

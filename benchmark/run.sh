#!/usr/bin/env bash
# Builds the benchmark from source and runs it against this checkout.
#
#   bash benchmark/run.sh --workload repair --seed 1 --seconds 25 --trace 0
#
# The binary, Go's build cache and every other file the build writes stay
# under .bench_build/ at the repository root. The build needs the
# repository around the benchmark, so it fails without it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmark" build -o "$build/benchmark" .
exec "$build/benchmark" -root "$root" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments, e.g.
#
#   bash tcqbench/run.sh --workload fleet-scan --seed 1 --seconds 20 --trace 0
#
# Every cache and temporary file the Go toolchain writes stays under
# .bench_build/, and no module is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/tcqbench" && go build -o "$build/tcqbench" .)
exec "$build/tcqbench" --out "$build" "$@"

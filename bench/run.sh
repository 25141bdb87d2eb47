#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh -workload serve-hit -seed 1 -seconds 20 -trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"

#!/usr/bin/env bash
# Builds the fleet benchmark from the repository's source and runs it.
#
#   bash fleetbench/run.sh --workload hot-paper --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build cache, the binary and the
# report/span files all go under .bench_build/ in the current directory,
# so nothing is written outside the checkout. Arguments are passed to
# the benchmark unchanged (see fleetbench/README.md).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/cluster" || ! -f "$root/fleetbench/go.mod" ]]; then
	echo "fleetbench: run from the repository root; the program's source (go.mod, internal/) is missing" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/fleetbench"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOENV=off
export GOPROXY=off

(cd "$root/fleetbench" && go build -o "$build/fleetbench/fleetbench" .)
exec "$build/fleetbench/fleetbench" --out "$build/fleetbench" "$@"

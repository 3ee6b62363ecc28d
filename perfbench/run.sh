#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
# The build, the Go build and module caches and the go tool's own
# configuration all stay in .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/perfbench"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"

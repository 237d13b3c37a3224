#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload c4-analyze --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache and temporary files, Chrome
# traces) stay under .bench_build/ in the checkout. The Go toolchain
# must be on PATH.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	echo "perfbench: the go toolchain is not on PATH" >&2
	exit 2
fi
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the serving benchmark and runs it from the repository root, keeping
# every build and run artifact under .bench_build/ in the checkout:
#
#   bash benchmark/run.sh --workload predict-exact --seed 1 --seconds 10 --trace 0
#
# Any arguments are passed to the benchmark binary (see benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go -C benchmark build -o "$build/servebench" .
exec "$build/servebench" "$@"

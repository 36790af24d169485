#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from the checkout
# it stands in and runs it with the arguments given, keeping the Go build
# cache, the binary and the result files under .bench_build in that checkout,
# so that nothing outside the checkout is written. `go run ./benchmark` is the
# same program for a person at a terminal.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: $root is not a checkout of the repository (no go.mod)" >&2
	exit 1
fi
cd "$root"
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"

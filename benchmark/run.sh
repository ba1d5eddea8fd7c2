#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# The build cache, the binary and the staged inputs all stay inside the
# checkout (.bench_build, .bench_work). Without arguments every workload
# runs, untraced then traced; see README.md.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
cd "$here/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -C "$here" -o "$PWD/.bench_build/verifyio-benchmark" .
exec .bench_build/verifyio-benchmark "$@"

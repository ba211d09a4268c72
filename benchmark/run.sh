#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (binary and Go build
# cache under .bench_build/) and runs it from the caller's directory with
# the given arguments. The build fails, and nothing runs, when the rest of
# the repository is not beside this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" "$@"

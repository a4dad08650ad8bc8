#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every build output stays inside the checkout (.bench_build/).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOTOOLCHAIN=local
go build -C benchmark -o "$build/ads-benchmark" .
exec "$build/ads-benchmark" "$@"

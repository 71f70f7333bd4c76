#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache included, so nothing is written
# outside it) and runs it with the caller's arguments.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of the
# checkout this script is in. Everything it writes (the Go build cache, the
# binary, the runs' scratch files) goes under .bench_build/ in that root.
#
#   bash benchmark/run.sh --workload dense_large --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh all -trace -out run.json
#
# The benchmark is a Go module of its own (benchmark/go.mod) that replaces
# module buckwild with the parent directory, so in a directory holding only
# the benchmark the build fails and this script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# Everything the go command writes stays in the checkout: build cache,
# module path, and its config directory (go/env, telemetry counters).
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/bench" .) >&2

cd "$root"
exec "$build/bench" "$@"

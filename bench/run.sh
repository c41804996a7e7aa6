#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it.
#
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash bench/run.sh -seed 42                       # all workloads, correctness chain
#   bash bench/run.sh -seed 42 -trace trace.json     # traced run, per-layer metrics
#   bash bench/run.sh --workload live --seed 7 --seconds 20 --trace 0
#   bash bench/run.sh -compare a/*.out -- b/*.out    # compare two sets of runs
#
# bench/ is its own module (it imports the root module through a replace
# directive), so the build runs with GOWORK=off. Build cache, temporary
# files and the binary all stay under .bench_build/ in the repository.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
    echo "bench: run from the repository root (no go.mod or internal/ here)" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"

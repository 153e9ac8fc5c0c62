#!/usr/bin/env bash
# Builds mdserve and the olapbench program from the checkout in the current
# directory, then runs olapbench with the given flags, e.g.
#
#   bash olapbench/run.sh --workload groupby --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binaries, generated CSV files, span dumps) goes under
# .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/olapbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
    echo "olapbench: run from the repository root (no go.mod here)" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -o "$build/bin/mdserve" ./cmd/mdserve
(cd "$root/olapbench" && go build -o "$build/bin/olapbench" .)
exec "$build/bin/olapbench" -mdserve "$build/bin/mdserve" -workdir "$build" "$@"

#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and
# runs it from the checkout root. Every build artifact (the Go build
# cache included) stays under .bench_build/ at the root.
#
# Usage: bash perfbench/run.sh --workload compile|plan|execute --seed N --seconds S --trace 0|1
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"

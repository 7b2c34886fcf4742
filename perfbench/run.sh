#!/usr/bin/env bash
# Builds the coldbootd end-to-end benchmark from source and runs it.
# Run from the repository root; all arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload bulk-scan --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/
# in the working directory: the Go build cache, the benchmark binary, the
# runs' temp data dirs (removed when a run ends) and traced runs' span
# files. No module download is attempted; the benchmark depends only on
# the repository's own module, found through the replace in go.mod.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"

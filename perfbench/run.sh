#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#   bash perfbench/run.sh --workload range-read --seed 1 --seconds 20 --trace 0
# Run from the repository root. The build cache, temporary files, the
# binary and the benchmark's scratch files all stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

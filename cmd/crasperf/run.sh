#!/usr/bin/env bash
# Builds crasperf from source and runs it with the given flags. Run it from
# the repository root: bash cmd/crasperf/run.sh -workload premiere -seed 1
#
# The build cache and the binary live in .bench_build/ under the current
# directory, so a run reads and writes nothing outside the checkout. The
# build fails, and so does this script, when the repository's own module
# (../.. from here) is missing.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

tmp="$out/crasperf.$$"
(cd cmd/crasperf && go build -o "$tmp" .)
mv -f "$tmp" "$out/crasperf"
exec "$out/crasperf" "$@"

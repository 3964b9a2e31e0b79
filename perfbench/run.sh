#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it; run it from the checkout's root:
#
#   bash perfbench/run.sh --workload feed --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the runs' scratch files stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
bin="$out/perfbench.$$"
(cd perfbench && go build -o "$bin" .)
mv -f "$bin" "$out/perfbench"
exec "$out/perfbench" "$@"

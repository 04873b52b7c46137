#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it.  Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload batch_e15 --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --workload emu_udp --spread 10 --seconds 25 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, binary,
# scratch cell stores, span files) goes under .bench_build/ in the
# checkout.  Build output goes to stderr; the last line of stdout is the
# result object.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark and the allocd service from the sources of the
# checkout it is run in, then runs one workload. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload fig7 --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in
# the checkout (Go build cache included), and the last line of
# standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

# The benchmark module replaces regalloc with the checkout root, so a
# directory that holds only the benchmark fails here, before any run.
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/allocd" regalloc/cmd/allocd) >&2

exec "$out/perfbench" -allocd "$out/allocd" -out "$out/reports" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
#   bash bench/run.sh --workload hit_fanin --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -all -seed 1
#
# Everything the build and the run leave behind goes under .bench_build
# in the checkout (the Go build cache too: nothing is written outside
# the checkout). The first build compiles the standard library into
# that cache and takes about a minute; later ones take under a second.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"

# The go command's own files: build cache, module cache, telemetry
# counters (kept under the user configuration directory).
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/lapbench" .)
exec "$out/lapbench" "$@"

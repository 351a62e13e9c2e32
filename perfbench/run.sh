#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload replay-traced --seed 1 --seconds 45 --trace 0
#
# The go command's build cache, temporary files and telemetry stay under
# .bench_build/ in the checkout, and nothing is fetched over the network:
# the benchmark module needs only the standard library and the rtseed module
# in the parent directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
exec go -C "$root/perfbench" run . -workdir "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build under the current
# directory (the repository root) and runs it; all arguments are passed
# through, e.g.:
#
#   bash perfbench/run.sh --workload read_fit --seed 1 --seconds 20 --trace 0
#
# Go's build cache, temp files and config stay under .bench_build too.
# The build needs the rest of the repository (perfbench/go.mod replaces
# the cphash module with ..), so without it the build fails and the
# script exits non-zero.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command keeps its config and telemetry counters under the user
# config dir; point that inside .bench_build too.
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"

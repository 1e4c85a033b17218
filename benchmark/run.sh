#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash benchmark/run.sh --workload serve-churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs (the Go build cache and
# the binary) and the run's temporary files stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" --workdir "$out/run" "$@"

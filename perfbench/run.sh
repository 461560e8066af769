#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload online-mixed --seed 1 --seconds 25 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config" # the go command's own settings and telemetry
export GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

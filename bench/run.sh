#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash bench/run.sh --workload dispatch-commit --seed 1 --seconds 15 --trace 0
#
# The build, the Go caches, the go command's own config and telemetry
# files, and every scratch file the workloads write stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/vinobench" .)
exec "$out/vinobench" "$@"

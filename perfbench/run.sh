#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload grid-8k --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the go command's own configuration and telemetry
# directory, and the binary all live in .bench_build/ under the current
# directory, so nothing is written to per-user directories. Outside a
# full checkout (no go.mod beside perfbench/) the build fails and so
# does this script.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build} # a build directory named by the caller wins
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/go-build GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

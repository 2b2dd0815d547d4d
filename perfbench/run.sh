#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload stream-count --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the go command's own state and the
# traced run's span logs all go under .bench_build/ in the current
# directory; the build needs no network.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"

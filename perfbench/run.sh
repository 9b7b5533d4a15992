#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# flags, from the root of a checkout:
#
#   bash perfbench/run.sh --workload closed-ll --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the Go configuration directory and the
# benchmark's temporary stores all live under .bench_build, so a run reads
# and writes only inside the checkout (and the Go toolchain itself).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

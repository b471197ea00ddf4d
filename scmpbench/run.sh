#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash scmpbench/run.sh --workload dataplane --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes
# (build cache, binary, temporary files) stays under .bench_build/ in
# the root; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod CGO_ENABLED=0

go -C "$root/scmpbench" build -trimpath -buildvcs=false -o "$out/scmpbench" . >&2
exec "$out/scmpbench" "$@"

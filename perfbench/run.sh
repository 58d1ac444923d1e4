#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload tree-restore-1k --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace files go to .bench_build in
# the current directory, and the go command's home and config directories
# too, so nothing is written outside it. The build needs no network: the
# only dependency is the repository's own module, found at ../ from
# perfbench/go.mod.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/home"
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" \
	GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off \
	go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

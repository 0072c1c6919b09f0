#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it from
# the checkout root:
#
#   bash perfbench/run.sh --workload catalogue --seed 1 --seconds 50 --trace 0
#
# Every build artefact (binary, Go build cache) stays under .bench_build in
# the checkout. Build output goes to stderr, so the last line of stdout is
# always the benchmark's own result line.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep the go command's cache, temporary files and config (telemetry
# counters included) inside the build directory, and never fetch anything.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --root "$root" "$@"

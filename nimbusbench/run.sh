#!/usr/bin/env bash
# Builds nimbusd and the benchmark from source, then runs the benchmark:
#
#   bash nimbusbench/run.sh --workload buy --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/nimbusbench in that directory, the Go build cache
# included.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build/nimbusbench"
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# Build quietly: stdout carries only the benchmark's report.
(cd "$root/nimbusbench" && go build -o "$work/bin/nimbusbench" .) >&2
go build -o "$work/bin/nimbusd" ./cmd/nimbusd >&2
exec "$work/bin/nimbusbench" "$@"

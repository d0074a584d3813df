#!/usr/bin/env bash
# Builds the load benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload fleet-direct --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the per-run directories.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOMODCACHE="${out}/gopath/pkg/mod" \
       XDG_CONFIG_HOME="${out}/config" TMPDIR="${out}/tmp" \
       GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C perfbench build -o "${out}/perfbench" .
exec "${out}/perfbench" "$@"

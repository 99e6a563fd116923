#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory: the binary, the Go
# build cache, and a traced run's spans and CPU profile.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off

(cd perfbench && go build -trimpath -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --outdir "$out/trace" "$@"

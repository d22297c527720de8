#!/usr/bin/env bash
# Builds the splitcnn binary and the benchmark command from this
# checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --serve-rates L,H --router-rates L,H \
#       --workload serve|router --seed N --seconds S --trace 0|1
#
# Run it from the checkout root. Everything it builds or writes goes
# under .bench_build/ in the checkout: the Go build cache, GOPATH, and
# the go command's own config and telemetry (via XDG_CONFIG_HOME).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
    GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

go build -o "$build/splitcnn" ./cmd/splitcnn
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --bin "$build/splitcnn" --out "$build/out" "$@"

#!/usr/bin/env bash
# Builds the perfbench program from the checkout it is run in and executes it
# with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload rgg-bmmb-large --seed 1 --seconds 20 --trace 0
#
# Every file the build and the runs produce (Go build cache, binaries, temp
# scenario and trace files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/home/go"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory: the Go build cache,
# the binary, and the scratch stores and trace recordings of a run.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home"
export TMPDIR="$build/tmp"

# perfbench is a module of its own (go.mod beside this script) that points
# at the repository root with a replace directive, so the root module's
# "go build ./..." and "go test ./..." leave it out.
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build" "$@"

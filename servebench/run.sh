#!/usr/bin/env bash
# Builds servebench from the checkout's sources and runs it. Run from the
# repository root; every argument is passed on, e.g.
#
#   bash servebench/run.sh --workload wide-rows --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --repeat 10 --workload all --seconds 10
#
# The Go build cache, temporary files and the binary stay in .bench_build,
# so nothing is read or written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" --out "$build" --readme "$root/servebench/README.md" "$@"

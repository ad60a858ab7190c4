#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it. The Go
# build cache, the toolchain's temporary files and the binary all live
# under .bench_build/, so a run reads and writes nothing outside the
# checkout; the first run in a checkout pays for a cold build.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
# Nothing is fetched: the harness imports the standard library and the
# repository it sits in.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/mantra-bench" .)
exec "$build/mantra-bench" "$@"

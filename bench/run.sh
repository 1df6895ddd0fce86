#!/bin/bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# with the arguments given. The Go build cache, temporary files and the
# toolchain's config directory are kept inside the checkout too, so a run
# reads and writes nothing outside it.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"

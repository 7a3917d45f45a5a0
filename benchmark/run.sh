#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build leaves behind goes
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its counters
export GOFLAGS= GOTOOLCHAIN=local

# The commit goes into the env block of the output. A checkout that is
# not a git repository has none.
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"

go -C benchmark build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" .
exec "$build/benchmark" "$@"

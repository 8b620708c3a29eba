#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark inside the
# checkout and runs it with the arguments given. Everything go writes (build
# cache, module cache, its telemetry counters under XDG_CONFIG_HOME, binaries,
# daemon stores) stays under <checkout>/.bench_build.
set -euo pipefail
cd "$(dirname "$0")"
build="$PWD/../.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/dhisq-bench" .
exec "$build/dhisq-bench" "$@"

#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout, then runs it with the arguments given
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the Go toolchain writes — build cache, temporary files, module
# cache — is pointed into .bench_build under the checkout, so a run reads and
# writes only inside it and does not depend on $HOME being set or writable.
# The first call in a checkout compiles (tens of seconds); later calls find
# the cache warm and relink in well under a second.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -o "$build/pushpull-bench" ./bench
exec "$build/pushpull-bench" "$@"

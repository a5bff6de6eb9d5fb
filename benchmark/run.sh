#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Runs from the root of a checkout:
# builds the benchmark (a module of its own, benchmark/go.mod, that
# replaces `confbench` with the checkout around it) from source into
# .bench_build (first call only; later calls find it up to date), keeps
# every file the Go toolchain and the benchmark write inside the
# checkout, and runs one workload with the arguments it was given.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The toolchain's own counters go to the user config directory; nothing
# is fetched (the benchmark needs the standard library only).
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -buildvcs=false -o "$out/confbench-benchmark" .
exec "$out/confbench-benchmark" "$@"

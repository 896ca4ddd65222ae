#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build and the run write stays under
# .bench_build in the checkout: the Go build cache, the binary, Go's
# configuration directory and the spill temp files of ground-spill.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

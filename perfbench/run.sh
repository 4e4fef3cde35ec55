#!/usr/bin/env bash
# Builds the benchmark program from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#	bash perfbench/run.sh --workload memorize --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the binary, index directories, span dumps) stays under
# .bench_build/ in that root; no module is downloaded.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the PANDA benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload monitor-steady --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, WAL data directories, span dumps) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$root/perfbench" build -o "$out/pandabench" .
exec "$out/pandabench" -out "$out" "$@"

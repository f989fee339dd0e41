#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on (--workload, --seed, --seconds, --trace). Run from the repository
# root. Build outputs, the Go build cache and the chain data all stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep the toolchain's caches and settings inside the checkout, and
# never let it fetch a toolchain or module.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out/run" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the checkout's
# root, passing every argument through, e.g.
#   bash bench/run.sh --workload walk-gups4k --seed 11 --seconds 10 --trace 0
# The Go build cache, the binary and the traced run's spans all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/dmtbench" .)
cd "$root"
exec "$out/dmtbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files and the binary live under
# .bench_build/ at the repository root, so a run writes nothing outside
# the checkout. The build never touches the network: the only
# dependency is the enclosing roccc module, replaced by its path.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off \
	go -C "$here" build -o "$out/perfbench" .

cd "$root"
exec "$out/perfbench" "$@"

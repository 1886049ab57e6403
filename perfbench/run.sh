#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# build and cache file stays under .bench_build/ in the checkout root.
#
#   bash perfbench/run.sh --workload reproduce --seed 99 --seconds 15 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off
export CGO_ENABLED=0
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"

go -C "$root/perfbench" build -buildvcs=false -o "$build/perfbench" .

# The checkout may not be a git repository; look no further up than it.
sha=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null \
	git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

cd "$root"
exec "$build/perfbench" -sha "$sha" "$@"

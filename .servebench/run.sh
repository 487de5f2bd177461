#!/usr/bin/env bash
# Builds echoimaged, echoimage-router and the serving benchmark from source
# and runs one benchmark pass. Run it from the repository root:
#
#   bash .servebench/run.sh --workload auth36-direct --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, the binaries, server logs, model and
# state directories, and the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/echoimaged" ]; then
	echo "servebench: $root holds no echoimage source tree; run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Keep the toolchain's caches, temp files, env file and telemetry inside
# the tree, and never let it reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$root" -o "$out/bin/" ./cmd/echoimaged ./cmd/echoimage-router
go build -C "$root/.servebench" -o "$out/bin/servebench" .
exec "$out/bin/servebench" -bin "$out/bin" -work "$out" "$@"

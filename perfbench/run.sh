#!/usr/bin/env bash
# Builds the s2fa benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload fig3-suite --seed 1 --seconds 28 --trace 0
#   bash perfbench/run.sh -compare A.jsonl B.jsonl
#
# Run it from the repository root. Every file the build writes (Go build
# cache, temporary files, the binary) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/s2fa-perfbench" .)
exec "$out/s2fa-perfbench" "$@"

#!/usr/bin/env bash
# Builds perfbench and cmd/psaflowd from the checkout in the current
# directory into .bench_build, then runs the benchmark with the given
# arguments (--workload NAME --seed N --seconds S --trace 0|1).
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/psaflowd || ! -f perfbench/go.mod ]]; then
    echo "perfbench: run from the root of a psaflow checkout" >&2
    exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Keep every build artefact and tool state inside the checkout, and never
# reach the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/psaflowd" ./cmd/psaflowd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --root "$root" --bin "$out/bin" "$@"

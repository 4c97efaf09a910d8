#!/usr/bin/env bash
# Builds gedserve and the benchmark harness from this source tree into
# .bench_build/ at the repository root, then runs one benchmark:
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
#
# Every build artifact, Go cache, Go telemetry file and scratch file
# stays under .bench_build/. Without the repository's sources around it
# the build fails and the script exits non-zero without printing a
# result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# With telemetry on (the default "local" mode) the go command forks a
# detached telemetry process that outlives it; turning telemetry off for
# this config directory keeps every process the build starts inside it.
mkdir -p "$out/config/go/telemetry"
printf 'off' >"$out/config/go/telemetry/mode"

(cd "$root" && go build -o "$out/gedserve" ./cmd/gedserve) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -root "$root" -bin "$out" "$@"

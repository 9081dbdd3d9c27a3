#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Every file the build and the run leave behind stays in .bench_build/
# at the repository root: the compiled binary, the Go build cache, the
# Go tool's own configuration and telemetry, and the temporary files
# (the flight-recorder logs of mr-mid).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/mobibench" .)
exec "$out/mobibench" "$@"

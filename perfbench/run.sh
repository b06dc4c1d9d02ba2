#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp dirs, the
# go command's telemetry, the binary) stays under .bench_build/ at the
# checkout root. The module in this directory imports the parent module
# through a relative replace, so the build fails, and nothing is printed
# on stdout, when the checkout holds only the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .) >&2
BENCH_GIT_REV="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)" \
	exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness, its launcher and the
# two programs under test (epang, placed) from the checkout's source into
# .bench_build/,
# then hands every argument to the harness. Everything the toolchain and the
# programs write (build cache, temp files, spill files) is redirected under
# .bench_build/ so a run touches nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

# With a fresh config directory the go command starts a detached telemetry
# child on its first use, which outlives this script. Switch telemetry off
# before go runs at all, so the benchmark leaves no process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

# The repo module must be present: in a directory holding only the benchmark
# there is nothing to measure, so exit non-zero without printing a result.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/epang" ] || [ ! -d "$root/cmd/placed" ]; then
  echo "bench/run.sh: the program's source is not in this checkout" >&2
  exit 1
fi
(cd "$root" && go build -o "$build/bin/" ./cmd/epang ./cmd/placed)
(cd "$here" && go build -o "$build/bin/benchharness" . && go build -o "$build/bin/launch" ./launch)

exec "$build/bin/benchharness" "$@"

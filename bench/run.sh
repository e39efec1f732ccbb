#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The Go
# build cache, the binary, durable_write's log directories and the trace
# files all go under .bench_build/ at the checkout root, so a run reads and
# writes nothing outside the checkout. Arguments go to the benchmark
# unchanged; see README.md.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
(
	cd "$root/bench"
	# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in here too.
	env GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/pimbench" .
)
cd "$root"
exec "$build/pimbench" -scratch "$build" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload figures-warm --seed 1 --seconds 20 --trace 0
# Run it from the checkout root. The Go build cache, temporary build files
# and the benchmark's span dumps all stay under .bench_build/ in the
# checkout. The build fails, and the script exits non-zero without a
# result, when the repository the benchmark measures is not beside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload kernels|admit|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, results and spans.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
# The go command's cache, module path, temp files, settings and telemetry
# all default to the home directory; keep them in the checkout.
(
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" HOME="$build/config"
	export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
	cd "$root/perfbench" && go build -o "$build/perfbench" .
)
cd "$root"
exec "$build/perfbench" "$@"

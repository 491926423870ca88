#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload city-broad --seed 1 --seconds 24 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory. Without the repository beside
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$bench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"

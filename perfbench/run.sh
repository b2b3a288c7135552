#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs one
# workload, passing every argument through:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout; the toolchain is never asked to download
# anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root"
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"

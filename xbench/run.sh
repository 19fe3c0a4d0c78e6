#!/usr/bin/env bash
# Builds the xbench driver from source and runs it from the repository
# root, passing every argument through, for example:
#
#   bash xbench/run.sh --workload rpc-small --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ at the repository root; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/xbench" && go build -o "$build/xbench" .)
cd "$root"
exec "$build/xbench" "$@"

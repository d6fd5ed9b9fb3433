#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload:
#
#   bash repobench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. The build (binary, Go build
# cache, temporary files) and the written traces stay under .bench_build/
# in that directory. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gomodcache" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$here" && go build -o "$build/repobench" .) >&2
exec "$build/repobench" "$@"

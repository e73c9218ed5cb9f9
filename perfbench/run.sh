#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, GOPATH, temporary files and the go command's own
# config and telemetry files stay under .bench_build in the checkout.
# Outside a stabl checkout (no go.mod beside perfbench/) it fails without
# printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "perfbench: $root is not a stabl checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$here"
exec go run . "$@"

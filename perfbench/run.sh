#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload mine-synth-1m --seed 1 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
# working directory, with the Go build cache and configuration kept there
# too, so nothing outside the checkout is read or written besides the Go
# toolchain itself. The benchmark module imports the program from the
# directory above it; without the program's sources the build fails and so
# does this script.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS

(cd "$bench" && go build -trimpath -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's source and runs it.
#
#   bash perfbench/run.sh --workload calib-cold --seed 1 --seconds 30 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write (Go build cache, binary, stores, span files) lands in .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Two CPUs, as on the 2-vCPU host the benchmark was built on. The
# collector keeps its defaults, as in tensorteed, so the timings carry
# the program's whole GC cost.
export GOMAXPROCS=2
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

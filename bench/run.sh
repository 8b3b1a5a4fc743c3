#!/usr/bin/env bash
# Builds bench/bstcperf from the checkout this script sits in and runs it
# with this script's arguments, e.g. from the repository root:
#
#   bash bench/run.sh --workload study-oc --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, temp
# files, the binary, model files, span exports) stays under .bench_build/
# in the checkout. Outside a full checkout the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bstcperf" ./bstcperf)
cd "$root"
exec "$out/bstcperf" -workdir "$out/work" "$@"

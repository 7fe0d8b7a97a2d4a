#!/usr/bin/env bash
# Builds the benchmark and the rcpnserve and rcpnworker binaries it drives,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig10 --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, the Go build cache included.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/" . rcpn/cmd/rcpnserve rcpn/cmd/rcpnworker) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"

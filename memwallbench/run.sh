#!/usr/bin/env bash
# Builds the memwall benchmark from source and runs it. Run from the root
# of a memwall checkout:
#
#   bash memwallbench/run.sh --workload fig3-grid --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, serve-mix's ledger directories
# and traced runs' Chrome-trace files. The binary is the plain non-PGO
# build (-pgo=off), the same code users get from `go build ./cmd/memwall`.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/memwallbench" && go build -pgo=off -o "$out/memwallbench" .)
exec "$out/memwallbench" -workdir "$out" -expected "$root/memwallbench/expected.json" "$@"

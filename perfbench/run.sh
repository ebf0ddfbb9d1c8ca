#!/usr/bin/env bash
# Builds the benchmark and rfprotectd from source, then runs the benchmark.
# Run from the root of an rfprotect checkout; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload fig9 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and traced runs' spans go to
# .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/rfprotectd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of an rfprotect checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$out/rfprotectd" ./cmd/rfprotectd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/rfprotectd" -out "$out" "$@"

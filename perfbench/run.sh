#!/usr/bin/env bash
# Builds the daglayer daemon and the perfbench command from this checkout,
# then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-corpus --seed 1 --seconds 15 --trace 0
#
# Every build product and the Go build cache live under .bench_build in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/daglayer || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/daglayer and perfbench/)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/daglayer" ./cmd/daglayer >&2
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -daemon "$out/daglayer" "$@"

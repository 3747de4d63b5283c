#!/usr/bin/env bash
# Builds the served-traffic benchmark from the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload analyst --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary)
# goes under .bench_build/ at the checkout root, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: no go.mod at $root; run from a full checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$root/perfbench" && go build -trimpath -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"

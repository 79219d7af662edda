#!/usr/bin/env bash
# Builds the benchmark driver from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs it with the
# given arguments; the toolchain's caches and config also stay inside
# .bench_build/. Run from the repository root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

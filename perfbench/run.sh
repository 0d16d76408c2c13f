#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout that holds this
# script, then runs it from the checkout's root:
#
#   bash perfbench/run.sh --workload flow_sdp --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# The binary, the Go build cache and every per-run scratch file stay under
# .bench_build/ in the checkout. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"

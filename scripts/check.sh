#!/bin/sh
# check.sh — the repo's fast verification gate: formatting, a full build
# (both binaries included), vet, and the race-enabled tests of the packages
# where concurrency lives: the CPLA hot path (parallel leaf solves, warm
# cache), the cplad job server (queue, cancellation, drain) and the
# independent checker (SDP audit hook fires from leaf workers), the
# Lagrangian backend (parallel pricing sweep), the portfolio racer
# (contender lanes, cancellation, commit) and the cluster layer (WAL
# store fsync path, hedged remote dispatch, membership probes). -short skips
# the heavy single-threaded convergence properties and the full-stack server
# e2e; the concurrent paths still run under the detector. The same run
# collects statement coverage of those gate packages and fails if the total
# falls below the recorded baseline. Run from the repo root (or via
# `make check`).
set -eu

# Short-mode statement coverage of the gate packages measured at 84.9%;
# fail if it decays past the safety margin.
cover_min=84.0

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go build ./...
go vet ./...
cover_out=$(mktemp)
trap 'rm -f "$cover_out"' EXIT
go test -race -short -timeout 15m -coverprofile="$cover_out" \
	./internal/core/ ./internal/sdp/ ./internal/server/ ./internal/verify/ \
	./internal/lagrange/ ./internal/portfolio/ ./internal/cluster/

cover_total=$(go tool cover -func="$cover_out" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
echo "coverage: ${cover_total}% (baseline ${cover_min}%)"
if awk -v got="$cover_total" -v min="$cover_min" 'BEGIN { exit !(got < min) }'; then
	echo "coverage ${cover_total}% below baseline ${cover_min}%" >&2
	exit 1
fi

# Allocation-regression gate: the PSD projection fast path and the pooled
# matmul must stay allocation-free in steady state (baselines recorded in
# BENCH_kernels.json by `make bench-kernels`).
go run ./cmd/benchkernels -gate

# Incremental-reuse smoke gate: one capacity delta on a small-suite instance
# must reuse cached leaf solves (memo or revalidation hits > 0, dirty-leaf
# ratio < 1), re-propagate fewer STA nodes than the design's trees hold
# (less than one full STA rebuild), with a clean independent audit. Catches
# regressions that silently turn the ECO path back into a full re-solve, or
# a backend call back into a design-wide re-analysis.
go run ./cmd/benchincr -smoke

# Incremental-STA smoke gate: on a small-suite instance, single-net deltas
# must re-propagate only a handful of tree nodes, with the patched slack
# index and top-K paths bitwise-identical to a from-scratch analysis and
# to the brute-force enumerator in internal/verify.
go run ./cmd/benchsta -smoke

# Portfolio-race smoke gate: on a small-suite instance, SDP, Lagrangian and
# a race of the two must each produce a verify-clean assignment, and the
# race's committed state must be byte-identical to the standalone run of
# whichever backend won. Catches regressions in the fork/commit path that
# the unit suites could miss on real instance shapes.
go run ./cmd/benchrace -smoke

# Batched-dispatch smoke gate: the batched lanes must stay bitwise
# identical to per-leaf solves (any worker count, leaf by leaf and over
# whole rounds), and short timing runs must not show the batched dispatcher
# regressing behind the per-leaf baseline — neither on an all-n=96 leaf set
# nor on a logged round's leaf profile (28 leaves over 16 dimensions), where
# a dispatcher that leaves the largest leaves to run alone falls behind.
go run ./cmd/benchbatch -smoke

# Cluster smoke gate: a durable session must recover from disk (snapshot +
# WAL tail) and replay bitwise-identical to a cold replay of the original
# history, and leaf solves fanned out to a real HTTP worker must come back
# bitwise-identical to the local batch solve. Catches WAL-format, replay
# and wire-codec regressions.
go run ./cmd/benchcluster -smoke

# Slack-report allocation gate: WorstNets must serve repeat queries from
# the report's cached order without sorting or allocating per call.
go test -run TestWorstNetsAllocs -count=1 ./internal/timing/

#!/bin/sh
# check.sh — the repo's fast verification gate: formatting, a full build
# (both binaries included), vet, and the race-enabled tests of the packages
# where concurrency lives: the CPLA hot path (parallel leaf solves, solve
# cache), the cplad job server (queue, cancellation, drain) and the
# independent checker (SDP audit hook fires from leaf workers), the
# Lagrangian backend (it starts no goroutine itself, but cplad's job
# workers run it and cancel it mid-walk) and the durable session store
# (WAL fsync path). -short skips the heavy single-threaded convergence
# properties and the full-stack server e2e; the concurrent paths still run
# under the detector. The same run collects statement coverage of those
# gate packages and fails if the total falls below the recorded baseline.
# Then named package tests gate leaf-solve convergence, kernel and timing
# allocations, incremental reuse, incremental STA, backend coherence, the
# pinned Lagrangian walks, batched dispatch and session recovery, and the
# perfbench module (which the root build never reaches) is vetted and
# tested. Run from the repo root (or via `make check`).
set -eu

# Short-mode statement coverage of the gate packages measured at 86.2-86.3%
# (internal/verify's share varies by a few statements between runs); fail if
# it decays past the safety margin.
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
	./internal/lagrange/ ./internal/cluster/

cover_total=$(go tool cover -func="$cover_out" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
echo "coverage: ${cover_total}% (baseline ${cover_min}%)"
if awk -v got="$cover_total" -v min="$cover_min" 'BEGIN { exit !(got < min) }'; then
	echo "coverage ${cover_total}% below baseline ${cover_min}%" >&2
	exit 1
fi

# Convergence floor: on the five flow designs at 0.5% release with default
# options, at most 5% of fresh ADMM leaf solves may stop at the iteration
# cap instead of their tolerance (the flow reads 0 of 568). Catches a
# penalty rule, start value or step length that lets μ collapse again.
go test -count=1 -run 'TestFlowLeavesConverge$' ./internal/core/

# Allocation-regression gate: the PSD projection fast path, the row-QL
# projection and the pooled matmul must stay allocation-free in steady state.
# Beside it, the small-block equivalence gate: below partialMinDim the
# row-QL projection must match the Jacobi reference to c·n·eps on random,
# semidefinite, balanced, repeated, zero and diagonal spectra at scales
# from 1e-300 to 1e+300.
go test -count=1 -run 'TestKernelsSteadyStateAllocFree$|TestSmallBlockProjectionMatchesJacobi$' ./internal/linalg/

# Timing allocation gate: on built trees Tree.BFSOrder and Grid.LayersFor
# must return their cached lists without allocating, and Engine.Analyze
# must allocate a fixed number of objects besides its SinkDelay map,
# whatever a tree's sink count or depth (no per-sink walk or path slice).
go test -count=1 -run 'TestAnalyzeSteadyStateAllocs$' ./internal/timing/

# Incremental-reuse gate: one capacity delta on a small-suite instance
# must reuse cached leaf solves (memo or revalidation hits > 0, dirty-leaf
# ratio < 1), re-propagate fewer STA nodes than the design's trees hold
# (less than one full STA rebuild), with a clean independent audit. Catches
# regressions that silently turn the ECO path back into a full re-solve, or
# a backend call back into a design-wide re-analysis.
go test -count=1 -run 'TestDeltaSolveReusesCache$' ./internal/incr/

# Incremental-STA gate: on a small-suite instance, single-net deltas must
# re-propagate only part of the design's tree nodes, with the patched slack
# index and top-K paths bitwise-identical to a from-scratch analysis and
# to the brute-force enumerator in internal/verify.
go test -count=1 -run 'TestTopKMatchesBruteForceAfterUpdate$' ./internal/sta/

# Backend coherence gate: on a small-suite instance, the SDP and Lagrangian
# backends must each produce a verify-clean assignment from every state
# entry point, byte-identical to a run started after an explicit timing
# analysis, with the timing cache and STA view equal to a fresh analysis.
go test -count=1 -run 'TestBackendsCoherent' .

# Lagrangian-walk pin: TILA under its linear and exact-DP pricers and the
# lagrange backend, on three seeded small-suite designs, must reproduce their
# fingerprinted final layers and scores bit for bit (TILA's FinalDelay and
# FinalOverflow, every lagrange round's Score and Accepted). Catches any change to the shared
# multiplier walk, its pricers, its scorer or its install.
go test -count=1 -run 'TestOptimizersPinned$' ./internal/lagrange/

# Batched-dispatch gate: the batched lanes must stay bitwise identical to
# per-leaf solves (any worker count, leaf by leaf and over whole rounds),
# and short timing runs must not show the batched dispatcher regressing
# behind the per-leaf baseline — neither on an all-n=96 leaf set nor on a
# logged round's leaf profile (28 leaves over 16 dimensions), where a
# dispatcher that leaves the largest leaves to run alone falls behind. The
# timing test needs the machine to itself: no -race, no -short, no package
# running beside it.
go test -count=1 -run 'TestBatchedRoundMatchesPerLeaf$' ./internal/core/
go test -count=1 -run 'TestBatchBitwiseEqualsPerLeaf$|TestBatchedDispatchKeepsPace$' ./internal/sdp/

# Recovery gate: a durable session must recover from disk (snapshot + WAL
# tail) and replay bitwise-identical to a cold replay of the original
# history, both when the process crashes after its last delta batch and
# when it crashes between two batches and the recovered session takes the
# second. Catches WAL-format and replay regressions.
go test -count=1 -run 'TestSessionRecoveryBitwiseIdentical$|TestClusterChaosByteIdentity$' ./internal/server/

# Slack-report allocation gate: WorstNets must serve repeat queries from
# the report's cached order without sorting or allocating per call.
go test -run TestWorstNetsAllocs -count=1 ./internal/timing/

# The benchmark harness is a module of its own, which the root build, vet
# and tests above never reach.
(cd perfbench && go vet ./... && go test ./...)

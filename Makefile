.PHONY: check test bench bench-kernels bench-incr bench-sta bench-race bench-batch bench-cluster serve fuzz

# Fast verification gate: gofmt, full build, go vet, race-enabled tests of
# the CPLA hot-path and server packages.
check:
	sh scripts/check.sh

# Full tier-1 suite.
test:
	go build ./... && go test ./...

# Run the cplad job server on :8080 (see README "Running the server").
serve:
	go run ./cmd/cplad -addr :8080

# Bounded fuzzing of the untrusted-input surfaces: the ISPD'08 parser
# (reachable by upload via POST /v1/jobs), the quadtree partitioner, and
# the ECO delta engine (random delta scripts checked against cold replays).
# Seed corpora live under each package's testdata/fuzz/. FuzzSTAUpdate
# mutates random layer assignments and checks the incremental STA index
# against a from-scratch analysis, bitwise. FuzzRace races the backend
# portfolio over random instances and config bits, asserting no deadlock,
# no contender goroutine leak and a verify-clean committed state.
# FuzzBatchBucketing throws random mixed-dimension problem sets at the
# batched SDP dispatcher, asserting bucket accounting, bitwise equality
# with per-leaf solves and independence from input order.
# FuzzWALReplay feeds truncated, bit-flipped and duplicated byte streams to
# the session WAL reader, asserting it always recovers a record-aligned
# prefix (recover-or-reject, never a panic or a partial record).
fuzz:
	go test ./internal/ispd08/ -run=NONE -fuzz=FuzzParse -fuzztime=30s
	go test ./internal/partition/ -run=NONE -fuzz=FuzzPartition -fuzztime=30s
	go test ./internal/incr/ -run=NONE -fuzz=FuzzDeltas -fuzztime=30s
	go test ./internal/sta/ -run=NONE -fuzz=FuzzSTAUpdate -fuzztime=30s
	go test ./internal/portfolio/ -run=NONE -fuzz=FuzzRace -fuzztime=30s
	go test ./internal/sdp/ -run=NONE -fuzz=FuzzBatchBucketing -fuzztime=30s
	go test ./internal/cluster/ -run=NONE -fuzz=FuzzWALReplay -fuzztime=30s

# The allocation-sensitive benchmarks recorded in BENCH_sdp.json.
bench:
	go test -bench BenchmarkSolve -benchmem -run NONE ./internal/sdp/
	go test -bench BenchmarkOptimizeRound -benchmem -run NONE ./internal/core/
	go test -bench BenchmarkTable2SDP -benchmem -run NONE .

# Dense-kernel and ADMM hot-loop benchmarks: re-measures the projection,
# matmul and solver benchmarks and rewrites the "after" section and
# allocation-gate baselines of BENCH_kernels.json ("before" is preserved).
bench-kernels:
	go run ./cmd/benchkernels

# Incremental ECO benchmark: base solve plus one delta of each kind through
# a live session, each gated against a cold replay (bitwise rows) or
# verify + metrics-within-tolerance (epsilon rows). Rewrites BENCH_incr.json
# with per-delta speedups, cache tiers hit and the equivalence mode.
bench-incr:
	go run ./cmd/benchincr

# Incremental STA benchmark: single-net Update vs full re-analysis and
# top-K path extraction vs brute-force enumeration, every comparison gated
# bitwise. Rewrites BENCH_sta.json.
bench-sta:
	go run ./cmd/benchsta

# Batched leaf-solving benchmark: per-leaf vs batched structure-of-arrays
# dispatch, on the fixed-work, converging and round-shaped leaf sets, plus
# the base-solve and end-to-end benchmarks.
# Rewrites the "after" section of BENCH_batch.json ("before" is the seed
# tree, preserved).
bench-batch:
	go run ./cmd/benchbatch

# Distributed-subsystem benchmark: session recovery (store load + history
# replay) at several WAL lengths, and remote leaf-solve fan-out vs the local
# batch path, every row gated on bitwise identity. Rewrites
# BENCH_cluster.json.
bench-cluster:
	go run ./cmd/benchcluster

# Backend portfolio benchmark: SDP vs Lagrangian vs a race of the two on
# small and suite instance classes, every run gated on a clean verify audit
# and on the race committing byte-identically to the standalone winner.
# Rewrites BENCH_race.json with wall-clock, quality and win attribution.
bench-race:
	go run ./cmd/benchrace

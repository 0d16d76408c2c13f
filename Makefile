.PHONY: check test bench serve fuzz

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
# against a from-scratch analysis, bitwise. FuzzBatchBucketing throws random mixed-dimension problem sets at the
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
	go test ./internal/sdp/ -run=NONE -fuzz=FuzzBatchBucketing -fuzztime=30s
	go test ./internal/cluster/ -run=NONE -fuzz=FuzzWALReplay -fuzztime=30s

# The solver's allocation-sensitive micro-benchmarks, the PSD projection at
# the flow's block sizes (both paths, for the partialMinDim crossover) and
# the Table-2 SDP flow benchmark. End-to-end throughput is measured by
# perfbench (perfbench/README.md).
bench:
	go test -bench BenchmarkProjectPSDFlowSizes -benchmem -run NONE ./internal/linalg/
	go test -bench BenchmarkSolve -benchmem -run NONE ./internal/sdp/
	go test -bench BenchmarkOptimizeRound -benchmem -run NONE ./internal/core/
	go test -bench BenchmarkTable2SDP -benchmem -run NONE .

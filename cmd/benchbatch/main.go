// Command benchbatch measures the batched-leaf-solving benchmarks behind
// BENCH_batch.json and gates the batched dispatcher against regressions.
//
// Full mode (the `make bench-batch` target) runs the base-solve, leaf-set
// and end-to-end benchmarks, then rewrites BENCH_batch.json: the "after"
// section is regenerated from the fresh run while "before" (the pre-batching
// tree, measured once at the seed) is preserved.
//
//	go run ./cmd/benchbatch
//
// Smoke mode (wired into scripts/check.sh) re-runs the batched-vs-per-leaf
// differential tests (bitwise equality) and short timing comparisons on an
// n=96 leaf set and on a logged round's mixed-dimension leaf set, failing if
// the batched dispatcher is meaningfully slower than the per-leaf baseline
// it replaces on either.
//
//	go run ./cmd/benchbatch -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

const recordPath = "BENCH_batch.json"

// measurement is one benchmark line's parsed metrics.
type measurement struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
	AvgTcp   float64 `json:"avgTcp,omitempty"`
	MaxTcp   float64 `json:"maxTcp,omitempty"`
}

// record is the BENCH_batch.json document.
type record struct {
	Description string                 `json:"description"`
	Commands    []string               `json:"commands"`
	Before      map[string]measurement `json:"before"`
	After       map[string]measurement `json:"after"`
	Highlights  map[string]string      `json:"highlights"`
}

func main() {
	smoke := flag.Bool("smoke", false, "regression gate: run the batched-vs-per-leaf differential tests and a short timing comparison")
	flag.Parse()
	if *smoke {
		os.Exit(runSmoke())
	}
	os.Exit(runFull())
}

// smokeTolerance is how much slower than the per-leaf baseline the batched
// dispatcher may measure before the gate fails. Single-run benchmark
// comparisons on a loaded machine are noisy; a genuine regression shows up
// far above this bar (a dispatcher that runs dimension buckets one after
// another measures 1.5-1.75x behind per-leaf on the round-shaped set at two
// cores).
const smokeTolerance = 1.25

func runSmoke() int {
	// Correctness first: the batched solve must be bitwise per-leaf at any
	// worker count, both leaf by leaf and over whole rounds.
	tests := []struct{ pkg, run string }{
		{"./internal/sdp/", "TestBatchBitwiseEqualsPerLeaf"},
		{"./internal/core/", "TestBatchedRoundMatchesPerLeaf"},
	}
	for _, tc := range tests {
		fmt.Printf("benchbatch: go test -run %s %s\n", tc.run, tc.pkg)
		out, err := exec.Command("go", "test", "-run", tc.run, "-count=1", tc.pkg).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchbatch: differential tests failed:\n%s", out)
			return 1
		}
	}

	// Then short timing comparisons on the workload classes batching is
	// sold on: a converging n=96 leaf set (one dimension bucket) and a
	// logged round's leaf profile (28 leaves over 16 dimensions, where the
	// costliest leaves are singleton buckets).
	pairs := []struct{ perLeaf, batched, benchtime string }{
		{"BenchmarkLeafSetConvPerLeaf", "BenchmarkLeafSetConvBatched", "2x"},
		{"BenchmarkLeafSetRoundPerLeaf", "BenchmarkLeafSetRoundBatched", "20x"},
	}
	for _, pr := range pairs {
		got, err := runBench("./internal/sdp/", pr.perLeaf+"$|"+pr.batched+"$", "-benchtime", pr.benchtime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchbatch: %v\n", err)
			return 1
		}
		per, okP := got[pr.perLeaf]
		bat, okB := got[pr.batched]
		if !okP || !okB {
			fmt.Fprintf(os.Stderr, "benchbatch: timing benchmarks did not both run: %v\n", got)
			return 1
		}
		if bat.NsOp > per.NsOp*smokeTolerance {
			fmt.Fprintf(os.Stderr, "benchbatch: %s %.0f ns/op vs %s %.0f ns/op — batched dispatch regressed beyond the %.0f%% noise bar\n",
				pr.batched, bat.NsOp, pr.perLeaf, per.NsOp, (smokeTolerance-1)*100)
			return 1
		}
		fmt.Printf("benchbatch: %s %.0f ns/op vs per-leaf %.0f ns/op ok (%.2fx)\n", pr.batched, bat.NsOp, per.NsOp, per.NsOp/bat.NsOp)
	}
	return 0
}

func runFull() int {
	rec, err := readRecord()
	if err != nil {
		// First generation: start an empty record; "before" must be filled
		// by measuring the parent tree.
		rec = &record{}
	}
	suites := []struct{ pkg, pattern string }{
		{"./internal/sdp/", "BenchmarkSolveLarge$|BenchmarkLeafSetPerLeaf$|BenchmarkLeafSetBatched$|BenchmarkLeafSetConvPerLeaf$|BenchmarkLeafSetConvBatched$|BenchmarkLeafSetRoundPerLeaf$|BenchmarkLeafSetRoundBatched$"},
		{"./internal/incr/", "BenchmarkSessionBaseSolve$"},
		{".", "BenchmarkTable2SDP$"},
	}
	after := map[string]measurement{}
	for _, s := range suites {
		fmt.Printf("benchbatch: benchmarking %s (%s)\n", s.pkg, s.pattern)
		// A fixed iteration count keeps the heavy (0.3–3.7 s/op) benchmarks
		// comparable across runs: the default 1 s benchtime gives them one
		// or two iterations with large run-to-run spread.
		got, err := runBench(s.pkg, s.pattern, "-benchtime", "3x")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchbatch: %v\n", err)
			return 1
		}
		for k, v := range got {
			after[k] = v
		}
	}
	rec.After = after
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchbatch: %v\n", err)
		return 1
	}
	if err := os.WriteFile(recordPath, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchbatch: %v\n", err)
		return 1
	}
	fmt.Printf("benchbatch: wrote %s (%d after measurements)\n", recordPath, len(after))
	return 0
}

func readRecord() (*record, error) {
	data, err := os.ReadFile(recordPath)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", recordPath, err)
	}
	return &rec, nil
}

// benchLine matches one `go test -bench` result line; the -N GOMAXPROCS
// suffix is absent on single-core runs.
var benchLine = regexp.MustCompile(`^(Benchmark\w+)(?:-\d+)?\s+\d+\s+(.*)$`)

// runBench executes one benchmark suite and parses the per-benchmark
// metrics (ns/op, B/op, allocs/op plus any ReportMetric units).
func runBench(pkg, pattern string, extra ...string) (map[string]measurement, error) {
	args := append([]string{"test", "-run", "NONE", "-bench", pattern, "-benchmem", pkg}, extra...)
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	got := map[string]measurement{}
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		var meas measurement
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				meas.NsOp = v
			case "B/op":
				meas.BytesOp = v
			case "allocs/op":
				meas.AllocsOp = v
			case "avgTcp":
				meas.AvgTcp = v
			case "maxTcp":
				meas.MaxTcp = v
			}
		}
		got[m[1]] = meas
	}
	if len(got) == 0 {
		return nil, fmt.Errorf("no benchmark results in output of go %s:\n%s", strings.Join(args, " "), out)
	}
	return got, nil
}

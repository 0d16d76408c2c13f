package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	cpla "repro"
	"repro/internal/incr"
	"repro/internal/sta"
)

// runECO replays a JSON-lines script through an incremental session: the
// base solve first, then one re-solve per delta line, printing each
// delta's critical-path metrics, measured dirty-leaf ratio and wall time.
// A line is one delta object, an array forming one batch, or a
// {"paths": {...}} query printing the current top-K critical paths; blank
// lines and #-comments are skipped. Exit codes: 1 bad script or failed
// solve, 2 a flag value a session cannot run, 3 cancelled by -timeout, 4 a
// verify audit found violations.
func runECO(ctx context.Context, script string) int {
	cfg, ok := ecoConfig()
	if !ok {
		return 2
	}
	ops, err := loadScript(script)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	gen := func() (*cpla.Design, error) { return load(*bench, *grFile) }
	start := time.Now()
	s, err := incr.New(ctx, gen, cfg)
	if err != nil {
		return fail(err, *timeout)
	}
	base := s.Base()
	fmt.Printf("base   : released %d, Avg(Tcp)=%.1f Max(Tcp)=%.1f (%.1fms)\n",
		base.Released, base.After.AvgTcp, base.After.MaxTcp, base.WallMS)

	dirtyVerify := false
	deltaNo := 0
	for i, op := range ops {
		if op.paths != nil {
			printPaths(s, op.paths)
			continue
		}
		deltaNo++
		res, err := s.Apply(ctx, op.batch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "delta %d (line op %d): %v\n", deltaNo, i+1, err)
			return fail(err, *timeout)
		}
		kinds := make([]string, len(op.batch))
		for j, d := range op.batch {
			kinds[j] = d.Kind()
		}
		fmt.Printf("delta %-2d [%s]: Avg(Tcp)=%.1f Max(Tcp)=%.1f dirty=%d/%d leaves (ratio %.2f, %d memo + %d reval of %d) %s %.1fms",
			deltaNo, strings.Join(kinds, ","),
			res.After.AvgTcp, res.After.MaxTcp,
			res.PredictedDirtyLeaves, res.PredictedLeaves,
			res.DirtyLeafRatio, res.MemoHits, res.RevalHits, res.LeafSolves,
			res.EquivalenceMode, res.WallMS)
		if res.Verify != "" {
			fmt.Printf(" verify=%s", res.Verify)
			if !res.VerifyClean {
				dirtyVerify = true
			}
		}
		fmt.Println()
	}
	fmt.Printf("eco    : %d delta batches in %.2fs total\n", deltaNo, time.Since(start).Seconds())
	if dirtyVerify {
		return 4
	}
	return 0
}

// ecoConfig builds the session configuration from the flags, with the
// optimizer options parsed exactly as for a one-shot run. A session runs
// the CPLA SDP engine or the Lagrangian backend, as a cplad session does;
// ok is false after any other -engine or -backend value, or an unknown
// -mapping or -solver, was reported.
func ecoConfig() (incr.Config, bool) {
	if *engine != "sdp" {
		fmt.Fprintf(os.Stderr, "-eco cannot run engine %q (want sdp, or -backend lagrange)\n", *engine)
		return incr.Config{}, false
	}
	opt, ok := cplaOptions(nil)
	if !ok {
		return incr.Config{}, false
	}
	cfg := incr.Config{
		Prepare:    cpla.DefaultPrepareOptions(),
		Core:       opt,
		Ratio:      *ratio,
		Verify:     *doVerify,
		Revalidate: *ecoReval,
	}
	cfg.Prepare.Route.Steiner = *steiner
	switch *backendSel {
	case "", "sdp":
	case "lagrange":
		cfg.Backend = cpla.NewLagrangeBackend(cpla.LagrangeOptions{})
	default:
		fmt.Fprintf(os.Stderr, "-eco cannot run backend %q (want sdp or lagrange)\n", *backendSel)
		return incr.Config{}, false
	}
	return cfg, true
}

// pathsQuery is the script form of a top-K critical path query: k (default
// 8), siblings (per-branch expansion bound, default 2, 0 unlimited) and an
// optional required-time override for the reported slacks.
type pathsQuery struct {
	K        int     `json:"k,omitempty"`
	Siblings *int    `json:"siblings,omitempty"`
	Required float64 `json:"required,omitempty"`
}

// printPaths answers one paths op against the session's live STA view.
func printPaths(s *incr.Session, q *pathsQuery) {
	k := q.K
	if k <= 0 {
		k = 8
	}
	opt := sta.QueryOptions{MaxSiblings: 2, Required: q.Required}
	if q.Siblings != nil {
		opt.MaxSiblings = *q.Siblings
	}
	paths, required := s.Paths(k, opt)
	fmt.Printf("paths  : top-%d of required %.1f (%d returned)\n", k, required, len(paths))
	for i, p := range paths {
		layers := make([]string, 0, len(p.Hops)-1)
		for _, h := range p.Hops[1:] {
			layers = append(layers, fmt.Sprintf("%d", h.Layer))
		}
		fmt.Printf("  %2d. net %-4d sink %-3d arrival %.1f slack %.1f hops %d layers %s\n",
			i+1, p.Net, p.Sink, p.Arrival, p.Slack, len(p.Hops), strings.Join(layers, ","))
	}
}

// scriptOp is one parsed script line: exactly one of batch or paths.
type scriptOp struct {
	batch []incr.Delta
	paths *pathsQuery
}

// scriptLine is the single-object line form: the delta fields inline, plus
// the paths op.
type scriptLine struct {
	Paths *pathsQuery `json:"paths,omitempty"`
	incr.Delta
}

// loadScript parses a JSON-lines ECO script: each non-blank, non-comment
// line is one op — a single delta object, an array of deltas forming one
// batch, or a {"paths": ...} query.
func loadScript(path string) ([]scriptOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var ops []scriptOp
	deltas := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			var batch []incr.Delta
			if err := json.Unmarshal([]byte(line), &batch); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
			}
			ops = append(ops, scriptOp{batch: batch})
			deltas++
			continue
		}
		var sl scriptLine
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sl); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		if sl.Paths != nil {
			if sl.Delta.Kind() != "empty" {
				return nil, fmt.Errorf("%s:%d: a line is one op: paths or a delta, not both", path, lineNo)
			}
			ops = append(ops, scriptOp{paths: sl.Paths})
			continue
		}
		ops = append(ops, scriptOp{batch: []incr.Delta{sl.Delta}})
		deltas++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if deltas == 0 && len(ops) == 0 {
		return nil, fmt.Errorf("%s: no ops in script", path)
	}
	return ops, nil
}

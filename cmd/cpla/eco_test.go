package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	cpla "repro"
)

func writeScript(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "script.jsonl")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadScriptMixedOps(t *testing.T) {
	p := writeScript(t, `
# warm-up comment
{"paths": {"k": 3}}
{"reroute": {"net": 7}}
[{"adjust_capacity": {"min_x": 0, "min_y": 0, "max_x": 4, "max_y": 4, "factor": 0.5}}, {"reroute": {"net": 2}}]
{"paths": {"k": 5, "siblings": 0, "required": 1234.5}}
`)
	ops, err := loadScript(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 4 {
		t.Fatalf("got %d ops, want 4", len(ops))
	}
	if ops[0].paths == nil || ops[0].paths.K != 3 || ops[0].paths.Siblings != nil {
		t.Fatalf("op 0: %+v", ops[0].paths)
	}
	if ops[1].batch == nil || len(ops[1].batch) != 1 || ops[1].batch[0].Kind() != "reroute" {
		t.Fatalf("op 1: %+v", ops[1])
	}
	if len(ops[2].batch) != 2 {
		t.Fatalf("op 2: want a 2-delta batch, got %+v", ops[2])
	}
	q := ops[3].paths
	if q == nil || q.K != 5 || q.Siblings == nil || *q.Siblings != 0 || q.Required != 1234.5 {
		t.Fatalf("op 3: %+v", q)
	}
}

func TestLoadScriptRejectsPathsPlusDelta(t *testing.T) {
	p := writeScript(t, `{"paths": {"k": 2}, "reroute": {"net": 1}}`)
	if _, err := loadScript(p); err == nil {
		t.Fatal("line mixing paths and a delta must be rejected")
	}
}

func TestLoadScriptRejectsUnknownField(t *testing.T) {
	p := writeScript(t, `{"pathz": {"k": 2}}`)
	if _, err := loadScript(p); err == nil {
		t.Fatal("unknown field must be rejected")
	}
}

func TestLoadScriptRejectsEmpty(t *testing.T) {
	p := writeScript(t, "# only a comment\n")
	if _, err := loadScript(p); err == nil {
		t.Fatal("empty script must be rejected")
	}
}

// setFlag sets a command-line flag for the rest of the test and restores
// its previous value afterwards.
func setFlag(t *testing.T, name, value string) {
	t.Helper()
	old := flag.Lookup(name).Value.String()
	if err := flag.Set(name, value); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set(name, old) })
}

// TestECORejectsFlagsASessionCannotRun: -eco parses the optimizer flags as
// a one-shot run does, so an unknown -mapping or -solver, and any -engine
// or -backend a session cannot run, exit 2 before any work starts instead
// of being silently ignored.
func TestECORejectsFlagsASessionCannotRun(t *testing.T) {
	script := writeScript(t, `{"reroute": {"net": 1}}`)
	for _, tc := range [][2]string{
		{"solver", "bogus"},
		{"mapping", "bogus"},
		{"engine", "ilp"},
		{"engine", "tila"},
		{"backend", "race"},
		{"backend", "bogus"},
	} {
		t.Run(tc[0]+"="+tc[1], func(t *testing.T) {
			setFlag(t, tc[0], tc[1])
			if code := runECO(context.Background(), script); code != 2 {
				t.Fatalf("-%s %s -eco: exit %d, want 2", tc[0], tc[1], code)
			}
		})
	}
}

// TestOneShotRejectsBadFlagsBeforeRouting: a one-shot run resolves its
// optimizer from the flags before it loads the design, so a bad value exits
// 2 even with no -bench or -gr given — a run with valid flags would fail
// at load with exit 1 instead, and before that a bad value cost a full
// route first.
func TestOneShotRejectsBadFlagsBeforeRouting(t *testing.T) {
	for _, tc := range [][2]string{
		{"engine", "tila-flow"},
		{"engine", "bogus"},
		{"backend", "bogus"},
		{"mapping", "bogus"},
		{"solver", "bogus"},
	} {
		t.Run(tc[0]+"="+tc[1], func(t *testing.T) {
			setFlag(t, tc[0], tc[1])
			if code := run(); code != 2 {
				t.Fatalf("-%s %s: exit %d, want 2", tc[0], tc[1], code)
			}
		})
	}
	if code := run(); code != 1 {
		t.Fatalf("valid flags, no design: exit %d, want 1 from load", code)
	}
}

// TestECOConfigHonorsFlags: the session configuration carries the parsed
// optimizer options, and -backend lagrange replaces the CPLA engine the way
// a cplad session's does.
func TestECOConfigHonorsFlags(t *testing.T) {
	setFlag(t, "solver", "ipm")
	setFlag(t, "mapping", "flow")
	cfg, ok := ecoConfig()
	if !ok || cfg.Backend != nil {
		t.Fatalf("default backend: ok=%v backend=%v, want the CPLA engine", ok, cfg.Backend)
	}
	if cfg.Core.SDPSolver != cpla.SolverIPM || cfg.Core.Mapping != cpla.MappingFlow {
		t.Fatalf("core options = %+v, want ipm solver and flow mapping", cfg.Core)
	}

	setFlag(t, "backend", "lagrange")
	cfg, ok = ecoConfig()
	if !ok || cfg.Backend == nil || cfg.Backend.Name() != "lagrange" {
		t.Fatalf("-backend lagrange: ok=%v backend=%v", ok, cfg.Backend)
	}
}

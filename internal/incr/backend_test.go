package incr

import (
	"context"
	"testing"

	"repro/internal/lagrange"
)

// lagCfg is the session configuration with the Lagrangian backend swapped
// in for the CPLA engine. The backend is deterministic, so the bitwise
// cold-replay contract must hold unchanged.
func lagCfg() Config {
	return Config{
		Backend: lagrange.New(lagrange.Options{}),
		Ratio:   0.05,
	}
}

// TestLagrangeBackendMatchesCold: a session solving through the Lagrangian
// backend must match a cold replay of its history bitwise — base solve and
// after a delta — exactly like the default engine.
func TestLagrangeBackendMatchesCold(t *testing.T) {
	g, cfg := testGen(5), lagCfg()
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Base()
	if base == nil || base.Released == 0 {
		t.Fatalf("base solve released nothing: %+v", base)
	}
	requireEquivalent(t, s, g, cfg)

	ni := s.Released()[0]
	if _, err := s.Apply(context.Background(), []Delta{{Reroute: &RerouteSpec{Net: ni}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), []Delta{
		{AdjustCapacity: &AdjustCapacitySpec{MinX: 2, MinY: 2, MaxX: 8, MaxY: 8, Factor: 0.6}},
	}); err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, s, g, cfg)
}

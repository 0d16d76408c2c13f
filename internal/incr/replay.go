package incr

import (
	"context"
	"fmt"
)

// ReplayBatches rebuilds a session from its durable record: the spec-level
// inputs (gen, cfg) plus the resolved delta batches a previous process
// committed, preserving batch boundaries. Because Apply records resolved
// deltas (auto-reroutes made explicit), replay is a pure function of the
// history — no router re-runs — so by the cold-replay equivalence
// contract the rebuilt session is bitwise-identical to the one that wrote
// the log, provided cfg matches the original (Revalidate changes only
// telemetry under the default bitwise settings).
func ReplayBatches(ctx context.Context, gen DesignFunc, cfg Config, batches [][]Delta) (*Session, error) {
	s, err := New(ctx, gen, cfg)
	if err != nil {
		return nil, fmt.Errorf("incr: replay base: %w", err)
	}
	for i, b := range batches {
		if _, err := s.Apply(ctx, b); err != nil {
			return nil, fmt.Errorf("incr: replay batch %d/%d: %w", i+1, len(batches), err)
		}
	}
	return s, nil
}

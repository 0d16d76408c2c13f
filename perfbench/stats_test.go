package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{50, 3}, {25, 2}, {75, 4}, {90, 4.6}, {10, 1.4},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		err  bool
	}{
		{1000, 90, false},
		{100, 90, false}, // exactly ten beyond p90
		{99, 75, false},  // 9.9 beyond p90: too few
		{40, 75, false},  // exactly ten beyond p75
		{39, 0, true},
		{0, 0, true},
	} {
		got, err := tailPercentile(c.n)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, error %v", c.n, got, err, c.want, c.err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9], n=4) == [2.5, 5.0, 7.5]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 5, 7.5},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestOpsPerSecondUsesTimeInsideOps(t *testing.T) {
	if got := opsPerSecond([]float64{100, 300, 600}); math.Abs(got-3) > 1e-12 {
		t.Errorf("opsPerSecond = %v, want 3 ops per second of op time", got)
	}
}

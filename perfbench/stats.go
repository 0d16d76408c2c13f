package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the tail percentiles a run may report, highest first.
var tailLadder = []float64{90, 75}

// tailPercentile picks the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it, so the tail is never read off one or two
// outliers. A run too short for any rung is an error: the workload's fixed
// op count must be sized to reach one.
func tailPercentile(n int) (float64, error) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%d samples leave fewer than ten beyond p%.0f", n, tailLadder[len(tailLadder)-1])
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the acceptance check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

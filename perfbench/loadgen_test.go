package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock is a clock that moves only when the code under test sleeps or
// a call takes time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestOpenLoopTimesFromDue runs a 10 ms schedule where the third call
// stalls for 35 ms: the calls due during the stall are sent late, and
// their latency counts the wait from when they were due.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.now()
	cost := []time.Duration{2, 2, 35, 2, 2, 2, 2}
	calls := 0
	loop := openLoop{every: 10 * time.Millisecond, now: clk.now, sleep: clk.sleep}
	samples := loop.run(start, func() bool { return calls == len(cost) }, func() error {
		clk.advance(cost[calls] * time.Millisecond)
		calls++
		return nil
	})
	if len(samples) != len(cost) {
		t.Fatalf("got %d samples, want %d", len(samples), len(cost))
	}
	// Due at 0,10,20,30,40,50,60 ms. Call 2 runs 20..55, so calls 3 to 6
	// are sent back to back at 55, 57, 59 and 61 ms.
	wantLate := []float64{0, 0, 0, 25, 17, 9, 1}
	wantLat := []float64{2, 2, 35, 27, 19, 11, 3}
	for i, s := range samples {
		if !s.due.Equal(start.Add(time.Duration(i) * 10 * time.Millisecond)) {
			t.Errorf("call %d due at %v, want %d ms", i, s.due.Sub(start), 10*i)
		}
		if math.Abs(s.lateMS()-wantLate[i]) > 1e-9 || math.Abs(s.latencyMS()-wantLat[i]) > 1e-9 {
			t.Errorf("call %d: late %v ms, latency %v ms; want %v, %v", i, s.lateMS(), s.latencyMS(), wantLate[i], wantLat[i])
		}
	}
	if got := lateMaxMS(samples); got != 25 {
		t.Errorf("lateMaxMS = %v, want 25", got)
	}
}

// TestOpenLoopStopsBeforeSending checks that no call is sent once the stop
// condition holds, even after a wait.
func TestOpenLoopStopsBeforeSending(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	stopAt := clk.now().Add(25 * time.Millisecond)
	loop := openLoop{every: 10 * time.Millisecond, now: clk.now, sleep: clk.sleep}
	samples := loop.run(clk.now(), func() bool { return !clk.now().Before(stopAt) }, func() error { return nil })
	if len(samples) != 3 {
		t.Errorf("got %d calls, want the ones due at 0, 10 and 20 ms", len(samples))
	}
}

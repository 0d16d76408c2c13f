package main

import "time"

// openLoop issues calls on a fixed schedule: call i is due at start+i·every
// whatever happened to the calls before it. One goroutine sends, so a call
// that blocks delays the calls due after it. Their latency is taken from
// when they were due, which counts the wait a stall imposes on later calls,
// and how late each was actually sent is kept apart as the generator's
// lateness.
type openLoop struct {
	every time.Duration
	now   func() time.Time
	sleep func(time.Duration)
}

// sample is one open-loop call.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latencyMS is the call's latency from when it was due.
func (s sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }

// lateMS is how long after its due time the call was sent.
func (s sample) lateMS() float64 { return ms(s.sent.Sub(s.due)) }

// run issues calls from start until stopped reports true, checked before
// each call is sent, and returns one sample per call made.
func (o openLoop) run(start time.Time, stopped func() bool, call func() error) []sample {
	var out []sample
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * o.every)
		if d := due.Sub(o.now()); d > 0 {
			o.sleep(d)
		}
		if stopped() {
			return out
		}
		sent := o.now()
		err := call()
		out = append(out, sample{due: due, sent: sent, done: o.now(), err: err})
	}
}

// lateMaxMS is the generator's worst lateness over the samples.
func lateMaxMS(samples []sample) float64 {
	worst := 0.0
	for _, s := range samples {
		worst = max(worst, s.lateMS())
	}
	return worst
}

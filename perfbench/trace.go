package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one op share Op; Parent is 0 for an op's root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as a
// duration a layer reports about itself; it returns the span's id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans)
}

// finished returns a copy of the closed spans.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the total duration and the self time:
// each span's duration minus the part of its interval its children cover.
// Overlapping children (parallel calls) are counted once.
func selfTimes(spans []span) []spanStat {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	var names []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.TotalMS += ms(s.dur())
		st.SelfMS += ms(s.dur() - covered(s, children[s.ID]))
	}
	sort.Strings(names)
	out := make([]spanStat, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// residualPct is the share of the named root spans' time that no child span
// covers — the part of an op the trace does not attribute to any layer.
func residualPct(spans []span, root string) float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, self time.Duration
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			total += s.dur()
			self += s.dur() - covered(s, children[s.ID])
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(self) / float64(total)
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	first := true
	for _, v := range ivs {
		if first || v.a > end {
			total += v.b - v.a
			end = v.b
			first = false
			continue
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// durationsMS returns the durations of the spans with the given name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// writeSpans writes every span and the per-name self times to path.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans []span     `json:"spans"`
		Stats []spanStat `json:"stats"`
	}{spans, selfTimes(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

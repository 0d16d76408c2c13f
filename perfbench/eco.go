package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/incr"
	"repro/internal/ispd08"
	"repro/internal/lagrange"
	"repro/internal/netlist"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/timing"
	"repro/internal/verify"
)

const (
	// ecoRatio is the session's release ratio (the paper's default).
	ecoRatio = 0.005
	// ecoThink is the delta client's pause after each response. With it the
	// session is busy about a third of the time, so a path query usually
	// finds the session idle (query_ms_p50 is the read path) and about one
	// in three waits behind a delta (query_ms_tail is the lock wait). Near
	// one half busy the median would flip between those two regimes.
	ecoThink = 30 * time.Millisecond
	// ecoQueryEvery is the open-loop path-query schedule (40 queries/s).
	ecoQueryEvery = 25 * time.Millisecond
	// ecoPathsK is how many critical paths each query asks for.
	ecoPathsK = 16
	// ecoWarmups is how many script deltas setup applies after pinning the
	// critical set: four cycles, so every kind of delta has run before timing
	// and set-up is about a second of steady work rather than a sliver
	// dominated by the session's base solve.
	ecoWarmups = 64
	// ecoNominalOpsPerS sizes the timed phase: seconds × ecoNominalOpsPerS
	// deltas, at least ecoMinOps, in whole script cycles.
	ecoNominalOpsPerS = 20
	ecoMinOps         = 100
	// ecoAlternates and ecoReroutable bound the nets the script draws from.
	ecoAlternates = 8
	ecoReroutable = 64
)

// ecoShape is the session's design: the small suite's adaptec1 shape. Like
// the flows' designs it does not depend on the workload seed, which picks
// the delta script.
var ecoShape = ispd08.SmallSuite[0]

// ecoCycle is the script's repeating pattern. Capacity adjustments and
// pitch derates are the majority, so the median delta is one of them; the
// reroutes, which re-run the whole initial assignment, make the tail. Each
// capacity shrink and pitch derate is undone by the next delta of its kind,
// so capacities do not drift toward zero over a long run.
var ecoCycle = []string{
	"adjust_capacity", "reroute", "derate_pitch", "adjust_capacity",
	"reroute", "derate_pitch", "adjust_capacity", "reroute",
	"adjust_capacity", "derate_pitch", "reroute", "adjust_capacity",
	"derate_pitch", "set_critical", "adjust_capacity", "reroute",
}

// ecoInputs is what the script generator knows about the design, taken
// from the client's own prepared copy of it.
type ecoInputs struct {
	W, H, Layers int
	// Critical is the base solve's released set, pinned during setup;
	// Alternates are the next most critical nets, swapped into it.
	Critical, Alternates []int
	// Reroutable are the longest routed nets outside both sets.
	Reroutable []int
}

// ecoScript returns the pinning delta followed by n script deltas. It is a
// pure function of its arguments: the same seed and inputs give the same
// op sequence.
func ecoScript(seed int64, in ecoInputs, n int) []incr.Delta {
	rng := rand.New(rand.NewSource(seed))
	out := []incr.Delta{{SetCritical: &incr.SetCriticalSpec{Nets: in.Critical}}}
	var shrunk *incr.AdjustCapacitySpec
	derated := -1
	for i := 0; i < n; i++ {
		var d incr.Delta
		switch ecoCycle[i%len(ecoCycle)] {
		case "reroute":
			d.Reroute = &incr.RerouteSpec{Net: in.Reroutable[rng.Intn(len(in.Reroutable))]}
		case "adjust_capacity":
			if shrunk == nil {
				x, y := rng.Intn(in.W-3), rng.Intn(in.H-3)
				shrunk = &incr.AdjustCapacitySpec{MinX: x, MinY: y, MaxX: x + 3, MaxY: y + 3, Factor: 0.75}
				d.AdjustCapacity = shrunk
			} else {
				restore := *shrunk
				restore.Factor = 1 / 0.75
				d.AdjustCapacity = &restore
				shrunk = nil
			}
		case "derate_pitch":
			if derated < 0 {
				derated = 1 + rng.Intn(in.Layers-1)
				d.DeratePitch = &incr.DeratePitchSpec{Layer: derated, Factor: 0.9}
			} else {
				d.DeratePitch = &incr.DeratePitchSpec{Layer: derated, Factor: 1 / 0.9}
				derated = -1
			}
		case "set_critical":
			nets := append([]int(nil), in.Critical...)
			nets[rng.Intn(len(nets))] = in.Alternates[rng.Intn(len(in.Alternates))]
			d.SetCritical = &incr.SetCriticalSpec{Nets: nets}
		}
		out = append(out, d)
	}
	return out
}

// ecoDesignInputs prepares the client's copy of the design and derives the
// script inputs from it.
func ecoDesignInputs(ctx context.Context, d *netlist.Design) (ecoInputs, float64, error) {
	t0 := time.Now()
	st, err := pipeline.PrepareCtx(ctx, d, pipeline.DefaultOptions())
	prepareS := time.Since(t0).Seconds()
	if err != nil {
		return ecoInputs{}, 0, fmt.Errorf("prepare: %w", err)
	}
	timings := st.Timings()
	in := ecoInputs{W: d.Grid.W, H: d.Grid.H, Layers: d.Grid.NumLayers()}
	in.Critical = append([]int(nil), timing.SelectCritical(timings, ecoRatio)...)
	sort.Ints(in.Critical)
	ranked := timing.SelectCritical(timings, float64(len(in.Critical)+ecoAlternates)/float64(len(d.Nets)))
	taken := map[int]bool{}
	for _, ni := range in.Critical {
		taken[ni] = true
	}
	for _, ni := range ranked {
		if !taken[ni] && len(in.Alternates) < ecoAlternates {
			in.Alternates = append(in.Alternates, ni)
			taken[ni] = true
		}
	}
	var routed []int
	for ni, rt := range st.Routes.Routes {
		if rt != nil && st.Trees[ni] != nil && !taken[ni] {
			routed = append(routed, ni)
		}
	}
	sort.SliceStable(routed, func(i, j int) bool {
		return len(st.Routes.Routes[routed[i]].Edges) > len(st.Routes.Routes[routed[j]].Edges)
	})
	in.Reroutable = routed[:min(len(routed), ecoReroutable)]
	if len(in.Critical) == 0 || len(in.Alternates) == 0 || len(in.Reroutable) == 0 || in.Layers < 2 {
		return ecoInputs{}, 0, fmt.Errorf("design too small for the ECO script: %d critical, %d alternates, %d reroutable nets",
			len(in.Critical), len(in.Alternates), len(in.Reroutable))
	}
	return in, prepareS, nil
}

// ecoEnv is one cplad instance serving over loopback with a durable store.
type ecoEnv struct {
	dir    string
	store  *cluster.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
}

func startEco() (*ecoEnv, error) {
	dir, err := os.MkdirTemp(scratchDir, "eco-store-")
	if err != nil {
		return nil, err
	}
	store, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := server.New(server.Config{
		Workers: 1,
		Store:   store,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv.Start()
	e := &ecoEnv{dir: dir, store: store, srv: srv, served: make(chan error, 1),
		hs:  &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String()}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the server, waits for it, and removes the store.
func (e *ecoEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, e.srv.Drain(ctx), e.store.Close(), os.RemoveAll(e.dir))
	return err
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// call sends one request and decodes a 2xx JSON response into out.
func call(c *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// openSession creates the session and waits for its base solve.
func (e *ecoEnv) openSession(c *http.Client, spec server.SessionSpec) (string, error) {
	var v server.SessionView
	if err := call(c, http.MethodPost, e.url+"/v1/sessions", spec, &v); err != nil {
		return "", err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for v.Status == server.SessionPreparing && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		if err := call(c, http.MethodGet, e.url+"/v1/sessions/"+v.ID, nil, &v); err != nil {
			return "", err
		}
	}
	if v.Status != server.SessionReady {
		return "", fmt.Errorf("session %s is %s: %s", v.ID, v.Status, v.Error)
	}
	return v.ID, nil
}

// ecoDelta is one timed delta request.
type ecoDelta struct {
	kind  string
	latMS float64
	res   *incr.DeltaResult
}

func (e *ecoEnv) applyDelta(c *http.Client, id string, d incr.Delta) (*incr.DeltaResult, error) {
	var resp server.DeltaResponse
	err := call(c, http.MethodPost, e.url+"/v1/sessions/"+id+"/deltas", server.DeltaRequest{Deltas: []incr.Delta{d}}, &resp)
	if err == nil && resp.Result == nil {
		err = errors.New("delta response without a result")
	}
	return resp.Result, err
}

// storeCounters reads the durable store's counters from /metrics. Fields
// are looked up by name and a missing one reads as absent, so a change to
// the metrics layout drops the counter instead of failing the run.
func (e *ecoEnv) storeCounters(c *http.Client) map[string]float64 {
	var m map[string]any
	if err := call(c, http.MethodGet, e.url+"/metrics", nil, &m); err != nil {
		return nil
	}
	out := map[string]float64{}
	cl, _ := m["cluster"].(map[string]any)
	st, _ := cl["store"].(map[string]any)
	for _, k := range []string{"fsyncs", "fsync_sum_micros", "snapshots"} {
		if v, ok := st[k].(float64); ok {
			out[k] = v
		}
	}
	return out
}

// runEco runs the ECO service workload.
func runEco(b *bench) error {
	ctx := context.Background()
	params := ecoShape
	gen := func() (*netlist.Design, error) { return ispd08.Generate(params) }
	nTimed := max(ecoMinOps, int(float64(b.seconds)*ecoNominalOpsPerS))
	nTimed = (nTimed + len(ecoCycle) - 1) / len(ecoCycle) * len(ecoCycle)
	spec := server.SessionSpec{Gen: &params, ReleaseRatio: ecoRatio, Revalidate: true, Backend: "lagrange"}
	b.params["design"] = fmt.Sprintf("%s(%dx%d,L%d,n%d,seed%d)", params.Name, params.W, params.H, params.Layers, params.NumNets, params.Seed)
	b.params["release_ratio"] = ecoRatio
	b.params["think_ms"] = ms(ecoThink)
	b.params["query_rate_per_s"] = float64(time.Second) / float64(ecoQueryEvery)
	b.params["paths_k"] = ecoPathsK
	b.params["deltas"] = nTimed
	b.params["warmup_deltas"] = ecoWarmups + 1
	b.params["backend"] = spec.Backend

	deltaClient, queryClient := newClient(), newClient()
	defer deltaClient.CloseIdleConnections()
	defer queryClient.CloseIdleConnections()

	var env *ecoEnv
	var id string
	var script []incr.Delta
	var prepareS []float64
	err := b.setupMedian(func(int) error {
		if env != nil {
			if err := env.close(); err != nil {
				return fmt.Errorf("tearing down the previous set-up: %w", err)
			}
			env = nil
		}
		d, err := gen()
		if err != nil {
			return err
		}
		in, ps, err := ecoDesignInputs(ctx, d)
		if err != nil {
			return err
		}
		prepareS = append(prepareS, ps)
		script = ecoScript(b.seed, in, ecoWarmups+nTimed)
		if env, err = startEco(); err != nil {
			return err
		}
		if id, err = env.openSession(deltaClient, spec); err != nil {
			return err
		}
		for _, d := range script[:1+ecoWarmups] {
			if _, err := env.applyDelta(deltaClient, id, d); err != nil {
				return fmt.Errorf("warm-up %s: %w", d.Kind(), err)
			}
		}
		return nil
	})
	if err != nil {
		if env != nil {
			env.close()
		}
		return err
	}
	defer env.close()

	var before map[string]float64
	if b.tr != nil {
		before = env.storeCounters(queryClient)
	}

	// Path queries: open loop on the second connection, for as long as the
	// delta script runs.
	var inflight, stop atomic.Bool
	var blocked []bool
	var queries []sample
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		loop := openLoop{every: ecoQueryEvery, now: time.Now, sleep: time.Sleep}
		q := 0
		queries = loop.run(start, stop.Load, func() error {
			blocked = append(blocked, inflight.Load())
			q++
			sp := b.tr.begin("query", 0, -q)
			defer b.tr.end(sp)
			var pr server.PathsResponse
			return call(queryClient, http.MethodGet, fmt.Sprintf("%s/v1/sessions/%s/paths?k=%d", env.url, id, ecoPathsK), nil, &pr)
		})
	}()

	var deltas []ecoDelta
	var tracedMS, untracedMS []float64
	var deltaErr error
	from := sampleProc()
	for i, d := range script[1+ecoWarmups:] {
		tr := b.tracerFor(i / len(ecoCycle))
		b.attempted++
		inflight.Store(true)
		t0 := time.Now()
		sp := tr.begin("op", 0, i+1)
		res, err := env.applyDelta(deltaClient, id, d)
		end := time.Now()
		inflight.Store(false)
		if err != nil {
			tr.end(sp)
			b.failed++
			deltaErr = fmt.Errorf("delta %d (%s): %w", i+1, d.Kind(), err)
			break
		}
		// The session reports its own solve time; the rest of the request
		// is the server's HTTP, WAL and JSON overhead.
		tr.add("incr.apply", sp, i+1, end.Add(-time.Duration(res.WallMS*float64(time.Millisecond))), end)
		tr.end(sp)
		lat := ms(end.Sub(t0))
		deltas = append(deltas, ecoDelta{kind: d.Kind(), latMS: lat, res: res})
		if tr != nil {
			tracedMS = append(tracedMS, lat)
		} else {
			untracedMS = append(untracedMS, lat)
		}
		time.Sleep(ecoThink)
	}
	to := sampleProc()
	stop.Store(true)
	wg.Wait()
	if deltaErr != nil {
		return deltaErr
	}

	b.attempted += len(queries)
	var queryMS, idleMS []float64
	nBlocked := 0
	for i, q := range queries {
		if q.err != nil {
			b.failed++
			return fmt.Errorf("path query %d: %w", i+1, q.err)
		}
		queryMS = append(queryMS, q.latencyMS())
		if blocked[i] {
			nBlocked++
		} else {
			idleMS = append(idleMS, q.latencyMS())
		}
	}

	var opMS []float64
	for _, d := range deltas {
		opMS = append(opMS, d.latMS)
	}
	b.setE2E("ops_per_s", opsPerSecond(opMS))
	if err := b.setLatencies("op_ms", opMS); err != nil {
		return err
	}
	if err := b.setLatencies("query_ms", queryMS); err != nil {
		return err
	}

	if err := ecoGate(ctx, gen, script, deltas[len(deltas)-1].res); err != nil {
		return err
	}

	spans := b.tr.finished()
	b.setLayer("pipeline.prepare_s", median(prepareS))
	setIncrLayers(b, deltas)
	var overhead []float64
	for _, d := range deltas {
		overhead = append(overhead, d.latMS-d.res.WallMS)
	}
	b.setLayer("server.delta_overhead_ms", median(overhead))
	if len(idleMS) > 0 {
		b.setLayer("server.query_idle_ms_p50", median(idleMS))
	}
	b.setLayer("server.query_blocked_frac", float64(nBlocked)/float64(len(queries)))
	if b.tr != nil {
		after := env.storeCounters(queryClient)
		if f, ok := counterDelta(before, after, "fsyncs"); ok {
			b.setLayer("cluster.fsyncs", f/float64(len(deltas)))
			if us, ok := counterDelta(before, after, "fsync_sum_micros"); ok && f > 0 {
				b.setLayer("cluster.fsync_ms_avg", us/f/1000)
			}
		}
		if s, ok := counterDelta(before, after, "snapshots"); ok {
			b.setLayer("cluster.snapshots", s)
		}
	}
	b.setLayer("loadgen.late_ms_max", lateMaxMS(queries))
	b.setRuntimeLayer(from, to, len(deltas))
	b.setTraceOverhead(tracedMS, untracedMS)
	b.setLayer("trace.residual_pct", residualPct(spans, "op"))
	return nil
}

// counterDelta is after[k]−before[k], when both reads have the counter.
func counterDelta(before, after map[string]float64, k string) (float64, bool) {
	a, okA := after[k]
	bf, okB := before[k]
	if !okA || !okB {
		fmt.Fprintf(os.Stderr, "perfbench: /metrics has no %s; reporting it as absent\n", k)
		return 0, false
	}
	return a - bf, true
}

// setIncrLayers reports the ECO engine's per-delta counters, as the
// session returned them in each DeltaResult. The session's optimizer is
// the Lagrangian backend, so its rounds are Lagrangian rounds.
func setIncrLayers(b *bench, deltas []ecoDelta) {
	n := float64(len(deltas))
	var wall, dirty, predicted []float64
	byKind := map[string][]float64{}
	var leaves, memo, reval, rounds, staUpd, staNodes int
	for _, d := range deltas {
		r := d.res
		wall = append(wall, r.WallMS)
		byKind[d.kind] = append(byKind[d.kind], r.WallMS)
		dirty = append(dirty, r.DirtyLeafRatio)
		if r.PredictedLeaves > 0 {
			predicted = append(predicted, float64(r.PredictedDirtyLeaves)/float64(r.PredictedLeaves))
		}
		leaves += r.LeafSolves
		memo += r.MemoHits
		reval += r.RevalHits
		rounds += r.Rounds
		staUpd += r.StaUpdates
		staNodes += r.StaNodesReprop
	}
	b.setLayer("incr.apply_ms", median(wall))
	for _, k := range []string{"reroute", "adjust_capacity", "derate_pitch", "set_critical"} {
		b.setLayer("incr."+k+"_ms_p50", median(byKind[k]))
	}
	b.setLayer("incr.leaf_solves", float64(leaves)/n)
	b.setLayer("incr.memo_hits", float64(memo)/n)
	b.setLayer("incr.reval_hits", float64(reval)/n)
	b.setLayer("incr.dirty_leaf_ratio", mean(dirty))
	b.setLayer("incr.predicted_dirty_ratio", mean(predicted))
	b.setLayer("lagrange.rounds", float64(rounds)/n)
	b.setLayer("sta.updates", float64(staUpd)/n)
	b.setLayer("sta.nodes_reprop", float64(staNodes)/n)
}

// ecoGate replays the whole script in-process from a cold start and
// requires the replay's last result to match the server's, and the
// replayed state to pass the independent checker clean.
func ecoGate(ctx context.Context, gen incr.DesignFunc, script []incr.Delta, served *incr.DeltaResult) error {
	batches := make([][]incr.Delta, len(script))
	for i, d := range script {
		batches[i] = []incr.Delta{d}
	}
	cfg := incr.Config{Prepare: pipeline.DefaultOptions(), Ratio: ecoRatio, Revalidate: true,
		Backend: lagrange.New(lagrange.Options{})}
	s, err := incr.ReplayBatches(ctx, gen, cfg, batches)
	if err != nil {
		return gateErr("in-process replay: %v", err)
	}
	got, want := *s.Last(), *served
	got.WallMS, want.WallMS = 0, 0
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		return gateErr("server's last delta result differs from the in-process replay:\nserver %s\nreplay %s", wj, gj)
	}
	if rep := verify.State(s.State(), verify.Options{}); !rep.Clean() {
		return gateErr("replayed state fails verification: %s", rep.Summary())
	}
	return nil
}

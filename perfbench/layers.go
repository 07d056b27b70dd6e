package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/url"
	"runtime"
	"time"

	"antlayer"
	"antlayer/internal/core"
	"antlayer/internal/server"
)

// layerPass gathers the traced run's per-layer numbers. Every number is
// measured from the benchmark's side: timers around calls into each
// layer's public functions, and the daemon's own /traces and /metrics.
// Nothing is added inside the program.
type layerPass struct {
	// core, from instrumented colony runs
	newColony, tours, runs []time.Duration
	antVertices            float64 // sum of tours run × ants × n
	tauBytes, useful       []float64
	remaps                 []time.Duration
	colonyIns              []input
	params                 []antlayer.ACOParams // per colonyIns entry

	// server compute and parse, in-process
	computeWith, respond                      []time.Duration
	allocsPerRun                              float64
	parseReq, parseWire, parseEdges, parseDot []time.Duration
	parseAllocs                               float64
	wireBytes                                 float64

	// daemon, from /traces and /metrics
	spanSelf         map[string][]float64 // µs per trace, 0 where absent
	unspanned        []float64
	cacheHitFrac     float64
	warmHitFrac      float64
	warmHits         int64
	toursSavedPerReq float64
	warmToursMean    float64
	gcPer1k          float64
	heapMB           float64
}

func newLayerPass() *layerPass {
	return &layerPass{spanSelf: map[string][]float64{}}
}

// tracedSpans are the daemon's request spans whose self time is reported.
var tracedSpans = []string{"parse", "warm", "cache_lookup", "queue_wait", "compute"}

// warmStart mirrors the daemon's warm plan at its default settings
// (-warm-tours-frac 1/3, -warm-stall-tours 3): the carried state, a
// third of the tours rounded up, and an early stop after three
// stagnant tours unless the request set its own.
func warmStart(p antlayer.ACOParams, st *antlayer.ACOState) antlayer.ACOParams {
	p.Warm = st
	p.Tours = max(1, int(math.Ceil(float64(p.Tours)/3)))
	if p.StopAfterStagnantTours == 0 {
		p.StopAfterStagnantTours = 3
	}
	return p
}

// colonies runs the colony over ins, broken into core.NewColony, one
// Colony.StepContext(ctx, 1) per tour and Finalize, each timed. Later
// steps of an edit chain warm-start from their chain base's state as
// the daemon would, and the name mapping plus ACOState.Remap that
// carries the state is timed too. Every layering is checked; the phase
// records each whole run as one operation.
func (lp *layerPass) colonies(ctx context.Context, ins []input, paramsFor func(input) antlayer.ACOParams, probe *speedProbe) (*phase, error) {
	type anchor struct {
		state *antlayer.ACOState
		names []string
	}
	anchors := map[int]anchor{}
	ph := newPhase(probe, cpuMeter{})
	for _, in := range ins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ph.next()
		p := paramsFor(in)
		if in.step > 0 {
			a, ok := anchors[in.chain]
			if !ok {
				return nil, fmt.Errorf("chain %d step %d: no base state", in.chain, in.step)
			}
			t0 := time.Now()
			st := a.state.Remap(antlayer.MapVerticesByName(a.names, in.names), in.g.N())
			lp.remaps = append(lp.remaps, time.Since(t0))
			p = warmStart(p, st)
		}
		lp.colonyIns = append(lp.colonyIns, in)
		lp.params = append(lp.params, p)
		r, lat, err := lp.colony(ctx, in.g, p)
		if err == nil {
			err = checkLayering(r.Layering, in.g)
		}
		ph.record(lat, err)
		if err != nil {
			continue
		}
		ph.answer(float64(r.Height)+r.Width, float64(r.Layering.DummyCount()))
		if in.chain >= 0 && in.step == 0 {
			if r.State == nil {
				return nil, fmt.Errorf("chain %d: base run exported no state", in.chain)
			}
			anchors[in.chain] = anchor{r.State, in.names}
		}
	}
	return ph.finish(), nil
}

// colony is one instrumented colony run.
func (lp *layerPass) colony(ctx context.Context, g *antlayer.Graph, p antlayer.ACOParams) (*antlayer.ACOResult, time.Duration, error) {
	t0 := time.Now()
	c, err := core.NewColony(g, p)
	newDur := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	for {
		ts := time.Now()
		done, err := c.StepContext(ctx, 1)
		lp.tours = append(lp.tours, time.Since(ts))
		if err != nil {
			return nil, 0, err
		}
		if done {
			break
		}
	}
	r, err := c.Finalize()
	total := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	lp.newColony = append(lp.newColony, newDur)
	lp.runs = append(lp.runs, total)
	toursRun := len(r.History)
	lp.antVertices += float64(toursRun * p.Ants * g.N())
	lp.tauBytes = append(lp.tauBytes, float64(g.N()*c.NumLayers()*8))
	if toursRun > 0 {
		lp.useful = append(lp.useful, float64(r.BestTour)/float64(toursRun))
	}
	return r, total, nil
}

// finish runs the in-process compute, allocation and parse passes over
// every stride-th input the colonies pass saw, with the same parameters.
// Corpus inputs are interleaved over 19 groups and 19 is prime, so any
// stride below 19 keeps every graph size in the mix.
func (lp *layerPass) finish(ctx context.Context, stride int) error {
	var idx []int
	for i := 0; i < len(lp.colonyIns); i += stride {
		idx = append(idx, i)
	}
	if len(idx) == 0 {
		return fmt.Errorf("layer pass: no inputs")
	}
	for _, i := range idx {
		in, p := lp.colonyIns[i], lp.params[i]
		req, err := parseQuery(in.query)
		if err != nil {
			return err
		}
		req.ACO = p
		// respond is a small difference of two colony-sized timings, so
		// each side is the faster of two alternated runs.
		run, cw := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for r := 0; r < 2; r++ {
			t0 := time.Now()
			if _, err := antlayer.AntColonyRun(in.g, p); err != nil {
				return err
			}
			run = min(run, time.Since(t0))
			t0 = time.Now()
			if _, _, _, err := server.ComputeWith(ctx, req, in.g, in.names, nil); err != nil {
				return err
			}
			cw = min(cw, time.Since(t0))
		}
		lp.computeWith = append(lp.computeWith, cw)
		lp.respond = append(lp.respond, cw-run)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, i := range idx {
		if _, err := antlayer.AntColonyRun(lp.colonyIns[i].g, lp.params[i]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	lp.allocsPerRun = float64(m1.Mallocs-m0.Mallocs) / float64(len(idx))

	return lp.parses(idx)
}

// parseReps repeats each parse for more samples of these short calls.
const parseReps = 3

// parses times server.ParseRequest and server.ParseGraph on each input,
// the graph both as the wire format the workload sends and in each of
// the two formats.
func (lp *layerPass) parses(idx []int) error {
	type parseIn struct {
		q                url.Values
		wire, edges, dot []byte
		wireReq, edgeReq server.Request
		dotReq           server.Request
		wireIsEdges      bool
	}
	var ps []parseIn
	for _, i := range idx {
		in := lp.colonyIns[i]
		q, err := url.ParseQuery(in.query)
		if err != nil {
			return err
		}
		req, err := server.ParseRequest(q)
		if err != nil {
			return err
		}
		pi := parseIn{q: q, wire: in.body, wireReq: req, edgeReq: req, dotReq: req}
		pi.edgeReq.Format, pi.dotReq.Format = "edges", "dot"
		pi.wireIsEdges = req.Format == "edges"
		if pi.wireIsEdges {
			pi.edges, pi.dot = in.body, dotBody(in.g, in.names)
		} else {
			pi.edges, pi.dot = edgeListBody(in.g), in.body
		}
		ps = append(ps, pi)
	}
	for r := 0; r < parseReps; r++ {
		for _, pi := range ps {
			t0 := time.Now()
			if _, err := server.ParseRequest(pi.q); err != nil {
				return err
			}
			lp.parseReq = append(lp.parseReq, time.Since(t0))
			t0 = time.Now()
			if _, _, err := server.ParseGraph(pi.edgeReq, bytes.NewReader(pi.edges)); err != nil {
				return err
			}
			edges := time.Since(t0)
			t0 = time.Now()
			if _, _, err := server.ParseGraph(pi.dotReq, bytes.NewReader(pi.dot)); err != nil {
				return err
			}
			dot := time.Since(t0)
			lp.parseEdges = append(lp.parseEdges, edges)
			lp.parseDot = append(lp.parseDot, dot)
			if pi.wireIsEdges {
				lp.parseWire = append(lp.parseWire, edges)
			} else {
				lp.parseWire = append(lp.parseWire, dot)
			}
			lp.wireBytes += float64(len(pi.wire))
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, pi := range ps {
		if _, err := server.ParseRequest(pi.q); err != nil {
			return err
		}
		if _, _, err := server.ParseGraph(pi.wireReq, bytes.NewReader(pi.wire)); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	lp.parseAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(ps))
	return nil
}

// traceView is the part of a /traces entry the benchmark reads.
type traceView struct {
	DurMS    float64 `json:"dur_ms"`
	Finished bool    `json:"finished"`
	Spans    []struct {
		Name    string `json:"name"`
		StartUS int64  `json:"start_us"`
		DurUS   int64  `json:"dur_us"`
	} `json:"spans"`
}

// daemonPhase runs a timed phase against a tracing daemon and reads the
// daemon's own account of it: /metrics deltas and the retained traces.
func (lp *layerPass) daemonPhase(ctx context.Context, d *daemon, run func() (passes, error)) (passes, error) {
	m0, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	ps, err := run()
	if err != nil {
		return nil, err
	}
	m1, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	var tv struct {
		Traces []traceView `json:"traces"`
	}
	if err := d.getJSON(ctx, "/traces?limit=0", &tv); err != nil {
		return nil, err
	}

	frac := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	reqs := float64(m1.LayerRequests - m0.LayerRequests)
	if reqs == 0 {
		return nil, fmt.Errorf("traced phase: the daemon counted no /layer requests")
	}
	lp.cacheHitFrac = frac(m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses)
	lp.warmHits = m1.WarmHits - m0.WarmHits
	lp.warmHitFrac = frac(lp.warmHits, m1.WarmMisses-m0.WarmMisses)
	lp.toursSavedPerReq = float64(m1.WarmToursSaved-m0.WarmToursSaved) / reqs
	var warmTours []float64
	for _, ph := range ps {
		warmTours = append(warmTours, ph.warmTours...)
	}
	lp.warmToursMean = mean(warmTours)
	lp.gcPer1k = float64(m1.Runtime.GCCycles-m0.Runtime.GCCycles) * 1000 / reqs
	lp.heapMB = float64(m1.Runtime.HeapAllocBytes) / (1 << 20)

	kept := 0
	for _, t := range tv.Traces {
		if !t.Finished {
			continue
		}
		kept++
		self, unspanned := spanSelfTimes(t)
		for _, name := range tracedSpans {
			lp.spanSelf[name] = append(lp.spanSelf[name], self[name])
		}
		lp.unspanned = append(lp.unspanned, unspanned)
	}
	if kept == 0 {
		return nil, fmt.Errorf("traced phase: the daemon retained no finished traces")
	}
	return ps, nil
}

// spanSelfTimes returns each span name's self time in one trace (its
// duration minus the spans nested inside it, summed over same-named
// spans) and the trace's unspanned time: its duration minus its
// top-level spans.
func spanSelfTimes(t traceView) (map[string]float64, float64) {
	// inside reports whether span j nests in span i; of two spans with
	// the same interval the later one is the child.
	inside := func(j, i int) bool {
		a, b := t.Spans[i], t.Spans[j]
		if i == j || b.StartUS < a.StartUS || b.StartUS+b.DurUS > a.StartUS+a.DurUS {
			return false
		}
		if b.StartUS == a.StartUS && b.DurUS == a.DurUS {
			return j > i
		}
		return true
	}
	self := map[string]float64{}
	spanned := 0.0
	for i, s := range t.Spans {
		own := float64(s.DurUS)
		top := true
		for j := range t.Spans {
			if inside(j, i) {
				own -= float64(t.Spans[j].DurUS)
			}
			if inside(i, j) {
				top = false
			}
		}
		self[s.Name] += own
		if top {
			spanned += float64(s.DurUS)
		}
	}
	return self, t.DurMS*1000 - spanned
}

// metrics names every per-layer number. Layers a workload does not
// exercise read 0: there is no daemon on paper-corpus, and no warm start
// outside edit-stream.
func (lp *layerPass) metrics() map[string]float64 {
	m := map[string]float64{
		"core.colony_ms_p50":        usP50(lp.runs) / 1000,
		"core.new_colony_us_p50":    usP50(lp.newColony),
		"core.tour_us_p50":          usP50(lp.tours),
		"core.allocs_per_run":       lp.allocsPerRun,
		"core.tau_bytes_computed":   mean(lp.tauBytes),
		"core.useful_tour_frac":     mean(lp.useful),
		"parse.request_us_p50":      usP50(lp.parseReq),
		"parse.graph_us_p50":        usP50(lp.parseWire),
		"parse.graph_edges_us_p50":  usP50(lp.parseEdges),
		"parse.graph_dot_us_p50":    usP50(lp.parseDot),
		"parse.allocs_per_req":      lp.parseAllocs,
		"serve.compute_with_ms_p50": usP50(lp.computeWith) / 1000,
		"serve.respond_us_p50":      usP50(lp.respond),
		"serve.unspanned_us":        median(lp.unspanned),
		"cache.hit_frac":            lp.cacheHitFrac,
		"warm.hit_frac":             lp.warmHitFrac,
		"warm.hits":                 float64(lp.warmHits),
		"warm.tours_saved_per_req":  lp.toursSavedPerReq,
		"warm.tours_run_mean":       lp.warmToursMean,
		"warm.remap_us_p50":         usP50(lp.remaps),
		"daemon.gc_cycles_per_1k":   lp.gcPer1k,
		"daemon.heap_alloc_mb":      lp.heapMB,
	}
	var runNS time.Duration
	for _, r := range lp.runs {
		runNS += r
	}
	if lp.antVertices > 0 {
		m["core.ns_per_ant_vertex"] = float64(runNS) / lp.antVertices
	} else {
		m["core.ns_per_ant_vertex"] = 0
	}
	var wireTime time.Duration
	for _, d := range lp.parseWire {
		wireTime += d
	}
	m["parse.bytes_per_us"] = 0
	if wireTime > 0 {
		m["parse.bytes_per_us"] = lp.wireBytes / (float64(wireTime) / float64(time.Microsecond))
	}
	for _, name := range tracedSpans {
		m["serve.span_"+name+"_us"] = median(lp.spanSelf[name])
	}
	return m
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strconv"
	"time"

	"antlayer"
	"antlayer/internal/server"
)

// config is one benchmark run's arguments.
type config struct {
	seed    int64
	seconds int
	daemon  string // built daglayer binary
	traced  bool
	// setupRounds is how many times set-up runs; setup_s is the median.
	setupRounds int
	// probe scales timings to a nominal machine speed; nil measures raw.
	probe *speedProbe
}

// result is everything one run measured.
type result struct {
	timed       passes  // the untraced timed phase
	traced      passes  // the traced phase (--trace 1 only)
	rssMB       float64 // VmHWM of the working process over the timed phase
	setups      []setupRound
	layers      map[string]float64
	daemonBuild map[string]any // /healthz build info; nil without a daemon
}

// setupRound is one set-up's duration, raw and at nominal speed.
type setupRound struct{ raw, scaled time.Duration }

// timeRounds runs fn rounds times and returns each round's duration,
// probing machine speed before and after each; fn learns whether its
// round is the last, whose state the run keeps.
func timeRounds(probe *speedProbe, rounds int, fn func(last bool) error) ([]setupRound, error) {
	var out []setupRound
	for r := 0; r < rounds; r++ {
		before := runProbe(probe)
		t0 := time.Now()
		if err := fn(r == rounds-1); err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", r+1, err)
		}
		d := time.Since(t0)
		out = append(out, setupRound{d, scaled(d, before, runProbe(probe))})
	}
	return out, nil
}

// timePasses runs pass timedPasses times, k = 0, 1, ...
func timePasses(ctx context.Context, pass func(k int) (*phase, error)) (passes, error) {
	var ps passes
	for k := 0; k < timedPasses; k++ {
		ph, err := pass(k)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps = append(ps, ph)
	}
	return ps, nil
}

// derivedSeed gives an input stream of its own (warm-up inputs, request
// order) that still depends only on the workload seed.
func derivedSeed(seed int64, stream int) int64 {
	rng := rand.New(rand.NewSource(seed))
	var s int64
	for i := 0; i <= stream; i++ {
		s = rng.Int63()
	}
	return s
}

// corpusParams is the paper's colony configuration on one goroutine.
func corpusParams() antlayer.ACOParams {
	p := antlayer.DefaultACOParams()
	p.Workers = 1
	return p
}

// runPaperCorpus: antlayer.AntColonyRun over the paper's corpus in the
// benchmark's own process. The colony kernel does all the work; no HTTP,
// parse, keying or cache is on the path.
func runPaperCorpus(ctx context.Context, cfg config) (*result, error) {
	res := &result{}
	p := corpusParams()
	var ins []input
	var err error
	res.setups, err = timeRounds(cfg.probe, cfg.setupRounds, func(bool) error {
		if ins, err = corpusInputs(cfg.seed, corpusPerGroupPerSecond*cfg.seconds); err != nil {
			return err
		}
		// Warm-up: two graphs per group from an input stream of their own.
		warm, err := corpusInputs(derivedSeed(cfg.seed, 1), 2)
		if err != nil {
			return err
		}
		for _, in := range warm {
			if _, err := antlayer.AntColonyRun(in.g, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Set-up's garbage goes back to the OS before the peak RSS restarts.
	debug.FreeOSMemory()
	if err := resetPeakRSS(0); err != nil {
		return nil, err
	}
	res.timed, err = timePasses(ctx, func(int) (*phase, error) {
		ph := newPhase(cfg.probe, cpuMeter{read: selfCPU, self: true})
		for _, in := range ins {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ph.next()
			t0 := time.Now()
			r, err := antlayer.AntColonyRun(in.g, p)
			lat := time.Since(t0)
			if err == nil {
				err = checkLayering(r.Layering, in.g)
			}
			ph.record(lat, err)
			if err == nil {
				ph.answer(float64(r.Height)+r.Width, float64(r.Layering.DummyCount()))
			}
		}
		return ph.finish(), nil
	})
	if err != nil {
		return nil, err
	}
	if res.rssMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	if cfg.traced {
		// The traced phase is the same colony runs, each broken into
		// NewColony, one StepContext call per tour and Finalize.
		lp := newLayerPass()
		res.traced, err = timePasses(ctx, func(int) (*phase, error) {
			return lp.colonies(ctx, ins, func(input) antlayer.ACOParams { return p }, cfg.probe)
		})
		if err != nil {
			return nil, err
		}
		if err := lp.finish(ctx, 8*timedPasses); err != nil {
			return nil, err
		}
		res.layers = lp.metrics()
	}
	return res, nil
}

// serveHot holds a serve-hot run's inputs and the bodies its set-up
// pass was answered with.
type serveHot struct {
	ins   []input
	fill  [][]byte
	fillQ [][2]float64 // (H+W, dummies) of each fill body
	refOK []bool       // fill body == in-process server.Compute
}

// runServeHot: POST /layer?format=edges&workers=1 against a daemon
// whose result cache already holds every graph of the working set, so
// each timed request is parse, keying, cache lookup and the write.
func runServeHot(ctx context.Context, cfg config) (*result, error) {
	res := &result{}
	var h serveHot
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var err error
	res.setups, err = timeRounds(cfg.probe, cfg.setupRounds, func(last bool) error {
		if h.ins, err = hotInputs(cfg.seed, hotWorkingSet); err != nil {
			return err
		}
		if d, err = startDaemon(ctx, cfg.daemon, "-trace-sample", "0"); err != nil {
			return err
		}
		if h.fill, err = fillCache(ctx, d, h.ins); err != nil {
			return err
		}
		if !last {
			d.stop()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.daemonBuild, err = d.build(ctx); err != nil {
		return nil, err
	}
	if err := h.reference(ctx); err != nil {
		return nil, err
	}
	order := hotOrder(derivedSeed(cfg.seed, 2), len(h.ins), hotRequestsPerSecond*cfg.seconds)
	timed := func(int) (*phase, error) { return h.phase(ctx, d, order, cfg.probe), nil }

	if err := resetPeakRSS(d.pid()); err != nil {
		return nil, err
	}
	if res.timed, err = timePasses(ctx, timed); err != nil {
		return nil, err
	}
	if res.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	d.stop()

	if cfg.traced {
		if d, err = startDaemon(ctx, cfg.daemon, tracedArgs(timedPasses*len(order))...); err != nil {
			return nil, err
		}
		if _, err := fillCache(ctx, d, h.ins); err != nil {
			return nil, err
		}
		lp := newLayerPass()
		res.traced, err = lp.daemonPhase(ctx, d, func() (passes, error) { return timePasses(ctx, timed) })
		if err != nil {
			return nil, err
		}
		d.stop()
		if _, err := lp.colonies(ctx, h.ins, serveParams, nil); err != nil {
			return nil, err
		}
		if err := lp.finish(ctx, 1); err != nil {
			return nil, err
		}
		res.layers = lp.metrics()
	}
	return res, nil
}

// fillCache is serve-hot's set-up pass: every working-set graph once,
// each a cold computation the daemon caches. It sends warm=false. Edge
// lists carry no vertex names, so every graph's vertices are named v0,
// v1, ... and the daemon's name-overlap probe would otherwise warm-start
// each fill from an earlier, unrelated graph of similar size; the cached
// body would then not be the cold answer server.Compute gives. warm is
// not part of the cache key, so the timed requests, which leave it at
// its default, hit these entries.
func fillCache(ctx context.Context, d *daemon, ins []input) ([][]byte, error) {
	bodies := make([][]byte, len(ins))
	for i, in := range ins {
		r, err := d.post(ctx, in.query+"&warm=false", in.body)
		if err != nil {
			return nil, err
		}
		if r.status != 200 || r.header.Get("X-Cache") != "miss" {
			return nil, fmt.Errorf("fill request %d: status %d, X-Cache %q: %s", i, r.status, r.header.Get("X-Cache"), r.body)
		}
		bodies[i] = r.body
	}
	return bodies, nil
}

// reference computes every working-set answer in-process with
// server.Compute and checks its layering; a hit on a graph whose fill
// body differs, or whose layering is invalid, counts as failed.
func (h *serveHot) reference(ctx context.Context) error {
	h.refOK = make([]bool, len(h.ins))
	h.fillQ = make([][2]float64, len(h.ins))
	for i, in := range h.ins {
		req, err := parseQuery(in.query)
		if err != nil {
			return err
		}
		want, _, err := server.Compute(ctx, req, in.g, in.names)
		if err != nil {
			return fmt.Errorf("in-process compute: %w", err)
		}
		b, err := checkBody(h.fill[i], in)
		h.refOK[i] = err == nil && bytes.Equal(want, h.fill[i])
		hw, dum := b.quality()
		h.fillQ[i] = [2]float64{hw, dum}
	}
	return nil
}

// phase is serve-hot's timed loop: one closed-loop connection, every
// answer a byte-identical cache hit.
func (h *serveHot) phase(ctx context.Context, d *daemon, order []int, probe *speedProbe) *phase {
	ph := newPhase(probe, d.cpuMeter())
	for _, i := range order {
		if ctx.Err() != nil {
			break
		}
		ph.next()
		in := h.ins[i]
		t0 := time.Now()
		r, err := d.post(ctx, in.query, in.body)
		lat := time.Since(t0)
		switch {
		case err != nil:
		case r.status != 200:
			err = fmt.Errorf("status %d: %s", r.status, r.body)
		case r.header.Get("X-Cache") != "hit":
			err = fmt.Errorf("X-Cache %q, want hit", r.header.Get("X-Cache"))
		case !bytes.Equal(r.body, h.fill[i]):
			err = fmt.Errorf("graph %d: hit body differs from its set-up body", i)
		case !h.refOK[i]:
			err = fmt.Errorf("graph %d: set-up body differs from in-process server.Compute or has an invalid layering", i)
		}
		ph.record(lat, err)
		if err == nil {
			ph.answer(h.fillQ[i][0], h.fillQ[i][1])
		}
	}
	return ph.finish()
}

// serveParams is the colony configuration the daemon runs a request
// with on a cold computation: the request's parameters plus state export,
// which the daemon turns on for every colony request it may warm-start.
func serveParams(in input) antlayer.ACOParams {
	req, err := parseQuery(in.query)
	if err != nil {
		panic(err) // queries are the benchmark's own constants
	}
	p := req.ACO
	p.ExportState = true
	return p
}

// tracedArgs starts a daemon that traces every request and retains the
// last ones of a phase of n requests (the slowest-N list is off, so the
// retained traces are an unbiased tail of the phase).
func tracedArgs(n int) []string {
	return []string{"-trace-sample", "1", "-trace-ring", strconv.Itoa(min(n, maxTraces)), "-trace-slowest", "-1"}
}

// maxTraces bounds the traces a traced daemon retains; each holds a
// fixed 128-span buffer of about 7 KiB.
const maxTraces = 2048

// runEditStream: POST /layer?format=dot&workers=1 walking edit chains.
// Each chain's base is a cold miss that anchors the chain in the warm
// cache; every later step warm-starts from it. Every request computes
// and writes both caches.
func runEditStream(ctx context.Context, cfg config) (*result, error) {
	res := &result{}
	// Each pass walks the same chains under its own vertex-name prefix,
	// so no pass can hit a result or anchor of an earlier one, and every
	// pass does the same work.
	ins := make([][]input, timedPasses)
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	chains := chainsPerSecond * cfg.seconds
	setup := func() error {
		for k := range ins {
			var err error
			if ins[k], err = chainInputs(cfg.seed, fmt.Sprintf("p%dc", k), chains, chainSteps); err != nil {
				return err
			}
		}
		// Warm-up: a few short chains of their own (prefix w, so they
		// never anchor a timed chain).
		warm, err := chainInputs(derivedSeed(cfg.seed, 1), "w", 4, 6)
		if err != nil {
			return err
		}
		if ph := editPhase(ctx, d, warm, nil); ph.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d requests failed: %v", ph.failed, ph.attempted, ph.failures)
		}
		return nil
	}
	var err error
	res.setups, err = timeRounds(cfg.probe, cfg.setupRounds, func(last bool) error {
		if d, err = startDaemon(ctx, cfg.daemon, "-trace-sample", "0"); err != nil {
			return err
		}
		if err := setup(); err != nil {
			return err
		}
		if !last {
			d.stop()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.daemonBuild, err = d.build(ctx); err != nil {
		return nil, err
	}
	timed := func(k int) (*phase, error) { return editPhase(ctx, d, ins[k], cfg.probe), nil }
	if err := resetPeakRSS(d.pid()); err != nil {
		return nil, err
	}
	if res.timed, err = timePasses(ctx, timed); err != nil {
		return nil, err
	}
	if res.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	d.stop()

	if cfg.traced {
		if d, err = startDaemon(ctx, cfg.daemon, tracedArgs(timedPasses*len(ins[0]))...); err != nil {
			return nil, err
		}
		if err := setup(); err != nil {
			return nil, err
		}
		lp := newLayerPass()
		res.traced, err = lp.daemonPhase(ctx, d, func() (passes, error) { return timePasses(ctx, timed) })
		if err != nil {
			return nil, err
		}
		if want := int64(timedPasses * (len(ins[0]) - chains)); lp.warmHits != want {
			// Every step after a chain's base is a warm hit.
			last := res.traced[len(res.traced)-1]
			last.failed++
			last.failures = append(last.failures,
				fmt.Sprintf("/metrics warm_hits grew by %d, want chain steps minus chains = %d", lp.warmHits, want))
		}
		d.stop()
		// In-process layers over the first 20 chains, every step.
		var sub []input
		for _, in := range ins[0] {
			if in.chain < 20 {
				sub = append(sub, in)
			}
		}
		if _, err := lp.colonies(ctx, sub, serveParams, nil); err != nil {
			return nil, err
		}
		if err := lp.finish(ctx, 1); err != nil {
			return nil, err
		}
		res.layers = lp.metrics()
	}
	return res, nil
}

// editPhase walks the chains in request order. Every answer must be a
// cache miss with a valid layering, warm-missing exactly on a chain's
// base and warm-hitting on every later step.
func editPhase(ctx context.Context, d *daemon, ins []input, probe *speedProbe) *phase {
	ph := newPhase(probe, d.cpuMeter())
	for _, in := range ins {
		if ctx.Err() != nil {
			break
		}
		ph.next()
		t0 := time.Now()
		r, err := d.post(ctx, in.query, in.body)
		lat := time.Since(t0)
		wantWarm := "hit"
		if in.step == 0 {
			wantWarm = "miss"
		}
		var b layerBody
		switch {
		case err != nil:
		case r.status != 200:
			err = fmt.Errorf("status %d: %s", r.status, r.body)
		case r.header.Get("X-Cache") != "miss":
			err = fmt.Errorf("chain %d step %d: X-Cache %q, want miss", in.chain, in.step, r.header.Get("X-Cache"))
		case r.header.Get("X-Warm") != wantWarm:
			err = fmt.Errorf("chain %d step %d: X-Warm %q, want %s", in.chain, in.step, r.header.Get("X-Warm"), wantWarm)
		default:
			b, err = checkBody(r.body, in)
		}
		ph.record(lat, err)
		if err == nil {
			ph.answer(b.quality())
			if in.step > 0 {
				ph.warmTours = append(ph.warmTours, float64(b.ToursRun))
			}
		}
	}
	return ph.finish()
}

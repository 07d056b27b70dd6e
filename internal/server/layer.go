package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strconv"
	"time"

	"antlayer"
	"antlayer/internal/dot"
	"antlayer/internal/obs"
)

// RenderMode selects the optional drawing embedded in a layer response.
type RenderMode string

const (
	RenderNone  RenderMode = "none"
	RenderSVG   RenderMode = "svg"
	RenderASCII RenderMode = "ascii"
)

// Request is a fully parsed and validated layering request: everything
// that determines the response body, plus the per-request timeout (which
// deliberately does not). The HTTP daemon builds one per /layer or /jobs
// call via ParseRequest; the `daglayer batch` CLI builds them from flags —
// both paths feed Compute, so a batch result file holds byte-for-byte the
// body the daemon would have served.
type Request struct {
	Format            string // dot | edges
	Algo              string // aco | island | lpl | minwidth | cg | ns
	Promote           bool
	Render            RenderMode
	DummyWidth        float64
	CGWidth           int
	ACO               antlayer.ACOParams
	Islands           int // island: colony count (0 = default)
	MigrationInterval int // island: tours between migrations (0 = default)
	// Distributed asks for algo=island to run on the shard coordinator's
	// worker fleet instead of in-process. It deliberately does not
	// parameterise the response body — the distributed archipelago is
	// byte-identical to the in-process one — so, like Workers and
	// Timeout, it is excluded from the cache key.
	Distributed bool
	// Labels are the job's topics on the async paths (/jobs, /jobs/bulk):
	// every event the job publishes carries them, so topic subscribers
	// (GET /events?topic=, webhook subscriptions) see it. They never
	// influence the computation or its body, so — like Timeout — they are
	// excluded from the cache key. Ignored by the synchronous /layer.
	Labels  []string
	Timeout time.Duration // 0 = server default
	// Warm permits the server's warm-start fast path for this request
	// (the default): a colony request may be seeded from a cached state
	// of the same or a similar graph and run on a reduced tour budget.
	// warm=false forces a cold run. Like Distributed, the knob selects
	// how the answer is computed, not what request it is, so it is
	// excluded from the cache key — but a warm-started computation is
	// cached under a lineage-suffixed key (see Server.warmPlan), never
	// under the cold key, so cold replays stay byte-identical.
	Warm bool
	// Base names the warm-start lineage explicitly: the canonical graph
	// hash (the X-Graph-Key answer of a previous request) whose cached
	// state should seed this run, skipping the similarity probe. Empty
	// means probe. Ignored when Warm is false.
	Base string
}

// DefaultRequest returns the request every unset parameter falls back to.
func DefaultRequest() Request {
	return Request{
		Format:     "dot",
		Algo:       "aco",
		Render:     RenderNone,
		DummyWidth: 1,
		CGWidth:    4,
		ACO:        antlayer.DefaultACOParams(),
		Warm:       true,
	}
}

// options maps the request onto the shared algorithm-constructor options.
func (req Request) options() antlayer.Options {
	return antlayer.Options{
		DummyWidth:        req.DummyWidth,
		CGWidth:           req.CGWidth,
		ACO:               req.ACO,
		Islands:           req.Islands,
		MigrationInterval: req.MigrationInterval,
	}
}

// ParseRequest decodes the query parameters of a /layer or /jobs request.
// Unknown parameters are rejected so that typos ("tuors=100") fail loudly
// instead of silently running with defaults.
func ParseRequest(q url.Values) (Request, error) {
	req := DefaultRequest()
	var err error
	for key, vals := range q {
		v := vals[len(vals)-1]
		switch key {
		case "format":
			req.Format = v
		case "algo":
			req.Algo = v
		case "promote":
			req.Promote, err = strconv.ParseBool(v)
		case "render":
			req.Render = RenderMode(v)
		case "dummy-width":
			req.DummyWidth, err = strconv.ParseFloat(v, 64)
		case "cg-width":
			req.CGWidth, err = strconv.Atoi(v)
		case "ants":
			req.ACO.Ants, err = strconv.Atoi(v)
		case "tours":
			req.ACO.Tours, err = strconv.Atoi(v)
		case "alpha":
			req.ACO.Alpha, err = strconv.ParseFloat(v, 64)
		case "beta":
			req.ACO.Beta, err = strconv.ParseFloat(v, 64)
		case "seed":
			req.ACO.Seed, err = strconv.ParseInt(v, 10, 64)
		case "workers":
			req.ACO.Workers, err = strconv.Atoi(v)
		case "stop-stagnant":
			req.ACO.StopAfterStagnantTours, err = strconv.Atoi(v)
		case "width-bound":
			req.ACO.WidthBound, err = strconv.ParseFloat(v, 64)
		case "islands":
			req.Islands, err = strconv.Atoi(v)
			if err == nil && req.Islands < 0 {
				err = fmt.Errorf("must be >= 0")
			}
		case "migration-interval":
			req.MigrationInterval, err = strconv.Atoi(v)
			if err == nil && req.MigrationInterval < 0 {
				err = fmt.Errorf("must be >= 0")
			}
		case "distributed":
			req.Distributed, err = strconv.ParseBool(v)
		case "warm":
			req.Warm, err = strconv.ParseBool(v)
		case "base":
			// A canonical graph hash (X-Graph-Key) is 64 hex characters;
			// bound rather than fully validate, so the knob stays format-
			// agnostic if the key scheme ever grows.
			if v == "" || len(v) > 128 {
				return req, fmt.Errorf("query parameter base=%q: want 1-128 characters", v)
			}
			req.Base = v
		case "label":
			// Repeatable: every value becomes a topic. Bounded so a
			// hostile request cannot pin unbounded label bytes to a job.
			for _, l := range vals {
				if l == "" || len(l) > 64 {
					return req, fmt.Errorf("query parameter label=%q: want 1-64 characters", l)
				}
			}
			if len(vals) > 8 {
				return req, fmt.Errorf("query parameter label: at most 8 labels per job, got %d", len(vals))
			}
			req.Labels = vals
		case "timeout-ms":
			var ms int64
			ms, err = strconv.ParseInt(v, 10, 64)
			if err == nil && ms <= 0 {
				err = fmt.Errorf("must be positive")
			}
			req.Timeout = time.Duration(ms) * time.Millisecond
		default:
			return req, fmt.Errorf("unknown query parameter %q", key)
		}
		if err != nil {
			return req, fmt.Errorf("query parameter %s=%q: %v", key, v, err)
		}
	}
	switch req.Format {
	case "dot", "edges":
	default:
		return req, fmt.Errorf("unknown format %q (want dot|edges)", req.Format)
	}
	switch req.Algo {
	case "aco", "island", "lpl", "minwidth", "cg", "ns":
	default:
		return req, fmt.Errorf("unknown algo %q (want aco|island|lpl|minwidth|cg|ns)", req.Algo)
	}
	switch req.Render {
	case RenderNone, RenderSVG, RenderASCII:
	default:
		return req, fmt.Errorf("unknown render %q (want none|svg|ascii)", req.Render)
	}
	if req.Distributed && req.Algo != "island" {
		return req, fmt.Errorf("distributed=true requires algo=island, got algo=%q", req.Algo)
	}
	if req.Base != "" && req.Algo != "aco" && req.Algo != "island" {
		return req, fmt.Errorf("base= requires a colony algorithm (aco|island), got algo=%q", req.Algo)
	}
	req.ACO.DummyWidth = req.DummyWidth
	return req, nil
}

// ParseGraph decodes a graph in the request's format, returning the graph
// and a per-vertex name slice (synthesised v<N> names for edge lists,
// which carry none).
func ParseGraph(req Request, body io.Reader) (*antlayer.Graph, []string, error) {
	switch req.Format {
	case "edges":
		return dot.ReadEdgeListNamed(body)
	default: // "dot", enforced by ParseRequest
		return antlayer.ReadDOT(body)
	}
}

// requestKey is the cache key: a hash over the graph's canonical hash gk
// (graphKey — the caller hashes the graph once and passes it in) and
// every parameter that determines the response body.
//
// Several fields are deliberately excluded. Workers: the layering is
// bitwise-identical at any worker count (PR 1, and the island model keeps
// the guarantee), so requests differing only in parallelism share a
// result. Distributed: the sharded archipelago is byte-identical to the
// in-process one at any worker-process count and partition (DESIGN.md
// §10), so a distributed request and its local twin share one entry.
// Timeout: it bounds the computation but does not parameterise it.
// Warm/Base: they select how the server may compute the answer, not what
// was asked; warm-started bodies live under a lineage-suffixed variant of
// this key (Server.warmPlan), so the bare key always names the cold body.
//
// Edge order is canonicalised, so the same graph serialised in two edge
// orders maps to one entry. Layer-width accumulation is floating-point and
// per-edge-order, so the two serialisations could in principle produce
// different (equally valid) layerings when computed from scratch; the
// cache pins whichever was computed first, which keeps responses stable —
// a feature, not a loss.
func requestKey(req Request, gk string) string {
	h := sha256.New()
	fmt.Fprintf(h, "graph=%s\n", gk)
	aco := req.ACO
	aco.Workers = 0
	// Warm and ExportState never parameterise the body of a *cold*
	// computation (exporting is a side channel; Warm is nil on the cold
	// path) and Warm is a pointer, whose %+v rendering would be an
	// address — nondeterministic keys. A warm-started computation *does*
	// have a different body; it is cached under this key plus a lineage
	// suffix (Server.warmPlan), never under the bare key.
	aco.Warm = nil
	aco.ExportState = false
	// The island knobs are canonicalised before hashing: for algo=island
	// the resolved values (defaults applied) go in, so ?algo=island and
	// ?algo=island&islands=4&migration-interval=2 — the same computation —
	// share one entry; for every other algorithm they are zeroed, because
	// they cannot influence the result.
	islands, interval := 0, 0
	if req.Algo == "island" {
		ip := req.options().IslandOf()
		islands, interval = ip.Islands, ip.MigrationInterval
	}
	fmt.Fprintf(h, "p algo=%s promote=%t render=%s dummyWidth=%g cgWidth=%d islands=%d interval=%d aco=%+v\n",
		req.Algo, req.Promote, req.Render, req.DummyWidth, req.CGWidth,
		islands, interval, aco)
	return hex.EncodeToString(h.Sum(nil))
}

// graphKey is the canonical hash of the graph alone — vertex count,
// per-vertex width and name, edges sorted by endpoint — shared by the
// result-cache key (which appends the parameters) and the warm-state
// cache (which is parameter-free: a pheromone matrix learned under one
// tour budget seeds a run under any other). It is echoed to clients as
// X-Graph-Key, the handle the base= knob names a lineage by.
func graphKey(g *antlayer.Graph, names []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "g n=%d\n", g.N())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(h, "v %d w=%g name=%q\n", v, g.Width(v), names[v])
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		fmt.Fprintf(h, "e %d %d\n", e.U, e.V)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// layerResponse is the JSON document /layer (and a done job) serves.
// Field order is fixed by the struct, so equal computations marshal to
// equal bytes — the property the cache-hit determinism test pins.
type layerResponse struct {
	Algo    string    `json:"algo"`
	Promote bool      `json:"promote"`
	Graph   graphInfo `json:"graph"`
	Metrics layerInfo `json:"metrics"`
	// Objective, BestTour and ToursRun are reported for algo=aco and
	// algo=island only: the colony's f = 1/(H+W) before promotion, the
	// tour that found the best walk (0 = the LPL seed stood — a
	// meaningful value, hence the pointer: omitempty would swallow it),
	// and the tours actually run, summed over islands (early stopping can
	// end a run before the configured count).
	Objective float64 `json:"objective,omitempty"`
	BestTour  *int    `json:"best_tour,omitempty"`
	ToursRun  int     `json:"tours_run,omitempty"`
	// BestIsland and Islands are reported for algo=island only: the ring
	// index that produced the layering and the archipelago size.
	BestIsland *int       `json:"best_island,omitempty"`
	Islands    int        `json:"islands,omitempty"`
	Layers     [][]string `json:"layers"`
	SVG        string     `json:"svg,omitempty"`
	ASCII      string     `json:"ascii,omitempty"`
}

type graphInfo struct {
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
}

// layerInfo mirrors the paper's five evaluation criteria (§VII).
type layerInfo struct {
	Height      int     `json:"height"`
	WidthIncl   float64 `json:"width_incl"`
	WidthExcl   float64 `json:"width_excl"`
	DummyCount  int     `json:"dummy_count"`
	EdgeDensity int     `json:"edge_density"`
}

// IslandRunner executes an island-model run — the seam through which the
// daemon routes algo=island requests onto the shard coordinator's worker
// fleet. A nil runner means in-process. Whatever the runner, the body
// marshalled from its result is byte-identical, because the distributed
// archipelago is (DESIGN.md §10); the seam selects where the colonies
// burn CPU, never what they produce.
type IslandRunner func(ctx context.Context, g *antlayer.Graph, p antlayer.IslandParams) (*antlayer.IslandResult, error)

// Compute runs the requested algorithm under ctx and marshals the
// response body — the one JSON shape shared by POST /layer, a done
// /jobs/{id} and a `daglayer batch` result file. It reports the colony
// tours executed (0 for the polynomial algorithms) so callers can feed
// their metrics. Only the colony paths are long enough to be cancellable;
// the polynomial algorithms run to completion well inside any sane
// deadline. Island runs execute in-process; ComputeWith is the variant
// that can shard them over a worker fleet.
func Compute(ctx context.Context, req Request, g *antlayer.Graph, names []string) (body []byte, toursRun int, err error) {
	body, toursRun, _, err = ComputeWith(ctx, req, g, names, nil)
	return body, toursRun, err
}

// ComputeWith is Compute with an explicit island runner (nil =
// in-process); see IslandRunner. When the request's colony parameters
// set ExportState, the returned state is the run's final search state
// (the winning island's, for algo=island) — the daemon stores it in the
// warm cache; state is nil otherwise and for the polynomial algorithms.
// The state never appears in the body, so exporting cannot perturb the
// served bytes.
func ComputeWith(ctx context.Context, req Request, g *antlayer.Graph, names []string, runIsland IslandRunner) (body []byte, toursRun int, state *antlayer.ACOState, err error) {
	if runIsland == nil {
		runIsland = antlayer.IslandColonyRunContext
	}
	resp := layerResponse{
		Algo:    req.Algo,
		Promote: req.Promote,
		Graph:   graphInfo{Vertices: g.N(), Edges: g.M()},
	}
	var l *antlayer.Layering
	switch req.Algo {
	case "aco":
		res, err := antlayer.AntColonyRunContext(ctx, g, req.ACO)
		if err != nil {
			return nil, 0, nil, err
		}
		toursRun = len(res.History)
		state = res.State
		l = res.Layering
		if req.Promote {
			l = antlayer.Promote(l)
		}
		resp.Objective = res.Objective
		bestTour := res.BestTour
		resp.BestTour = &bestTour
		resp.ToursRun = toursRun
	case "island":
		res, err := runIsland(ctx, g, req.options().IslandOf())
		if err != nil {
			return nil, 0, nil, err
		}
		for _, st := range res.PerIsland {
			toursRun += st.ToursRun
		}
		state = res.State
		l = res.Layering
		if req.Promote {
			l = antlayer.Promote(l)
		}
		resp.Objective = res.Objective
		bestTour := res.BestTour
		resp.BestTour = &bestTour
		resp.ToursRun = toursRun
		bestIsland := res.BestIsland
		resp.BestIsland = &bestIsland
		resp.Islands = len(res.PerIsland)
	default:
		layerer, err := antlayer.LayererByName(ctx, req.Algo, req.options())
		if err != nil {
			return nil, 0, nil, err
		}
		if req.Promote {
			layerer = antlayer.WithPromotion(layerer)
		}
		l, err = layerer.Layer(g)
		if err != nil {
			return nil, 0, nil, err
		}
	}

	m := l.ComputeMetrics(req.DummyWidth)
	resp.Metrics = layerInfo{
		Height:      m.Height,
		WidthIncl:   m.WidthIncl,
		WidthExcl:   m.WidthExcl,
		DummyCount:  m.DummyCount,
		EdgeDensity: m.EdgeDensity,
	}
	resp.Layers = make([][]string, 0, len(l.Layers()))
	for _, layer := range l.Layers() {
		row := make([]string, len(layer))
		for i, v := range layer {
			row[i] = names[v]
		}
		resp.Layers = append(resp.Layers, row)
	}

	if req.Render != RenderNone {
		render := obs.FromContext(ctx).Begin("render")
		d, err := antlayer.Draw(g, fixedLayering{l}, nil)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("render: %w", err)
		}
		var buf bytes.Buffer
		switch req.Render {
		case RenderSVG:
			err = d.WriteSVG(&buf)
			resp.SVG = buf.String()
		case RenderASCII:
			err = d.WriteASCII(&buf)
			resp.ASCII = buf.String()
		}
		if err != nil {
			return nil, 0, nil, fmt.Errorf("render: %w", err)
		}
		render.End()
	}

	body, err = json.Marshal(resp)
	if err != nil {
		return nil, 0, nil, err
	}
	return append(body, '\n'), toursRun, state, nil
}

// fixedLayering adapts an already-computed layering to the Layerer
// interface so the Sugiyama pipeline renders it instead of re-running the
// algorithm (the pipeline clones acyclic inputs and normalizes the
// layering in place, hence the clone).
type fixedLayering struct{ l *antlayer.Layering }

func (f fixedLayering) Layer(*antlayer.Graph) (*antlayer.Layering, error) {
	return f.l.Clone(), nil
}

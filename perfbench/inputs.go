package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"antlayer"
	"antlayer/internal/dot"
	"antlayer/internal/graphgen"
	"antlayer/internal/server"
)

// Sizes of the fixed work, per pass (a timed phase makes timedPasses
// passes). Every count is a function of the workload seed and --seconds
// only, never of elapsed time, so two runs with the same arguments do
// exactly the same operations. The per-second factors make a run last
// about --seconds on a 2-vCPU x86 box at the time the benchmark was
// written; a faster program simply finishes sooner. From 15 seconds on,
// every pass has at least 1000 operations, so its p99 has at least ten
// samples beyond it.
const (
	// paper-corpus: graphs per corpus group per second of run time; the
	// corpus has 19 groups, n = 10, 15, ..., 100, of 67 or 68 graphs, so
	// from 17 seconds on a pass layers the whole corpus (1277 graphs).
	corpusPerGroupPerSecond = 4
	// serve-hot: distinct graphs in the working set, half the daemon's
	// default 256-entry result cache, so every one of them stays cached.
	hotWorkingSet = 128
	// serve-hot: requests per second of run time, rounded up to whole
	// rounds over the working set.
	hotRequestsPerSecond = 300
	// edit-stream: edit chains per second of run time, each chainSteps
	// long with chainEdits edits between consecutive steps. Chains are
	// short enough that one request in chainSteps is a cold base: the
	// p99 latency falls among the bases, and there must be over a hundred
	// of them for it to repeat from seed to seed.
	chainsPerSecond = 9
	chainSteps      = 8
	chainEdits      = 3
)

// Wire queries. Every colony request pins workers=1, so that one
// request never has more runnable goroutines than this box has CPUs.
const (
	edgesQuery = "format=edges&workers=1"
	dotQuery   = "format=dot&workers=1"
)

// input is one operation's input: the request the daemon receives and
// the graph it parses from it.
type input struct {
	query string
	body  []byte
	g     *antlayer.Graph
	names []string
	// chain and step place an edit-stream request in its lineage; step 0
	// is the chain's base. chain is -1 outside edit-stream.
	chain, step int
}

// parsedInput parses body exactly as the daemon does.
func parsedInput(query string, body []byte, chain, step int) (input, error) {
	req, err := parseQuery(query)
	if err != nil {
		return input{}, err
	}
	g, names, err := server.ParseGraph(req, bytes.NewReader(body))
	if err != nil {
		return input{}, fmt.Errorf("parse generated input: %w", err)
	}
	return input{query: query, body: body, g: g, names: names, chain: chain, step: step}, nil
}

func parseQuery(query string) (server.Request, error) {
	q, err := url.ParseQuery(query)
	if err != nil {
		return server.Request{}, err
	}
	return server.ParseRequest(q)
}

func edgeListBody(g *antlayer.Graph) []byte {
	var b bytes.Buffer
	_ = dot.WriteEdgeList(&b, g) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// dotBody writes g as DOT with the given vertex names: every vertex is
// declared in index order, then every edge, so the daemon's parser
// numbers the vertices as g does.
func dotBody(g *antlayer.Graph, names []string) []byte {
	var b strings.Builder
	b.WriteString("digraph G {\n")
	for _, n := range names {
		fmt.Fprintf(&b, "\t%s;\n", n)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "\t%s -> %s;\n", names[e.U], names[e.V])
	}
	b.WriteString("}\n")
	return []byte(b.String())
}

// corpusInputs is the paper's corpus (sparse family, 19 groups, n = 10
// to 100) with at most perGroup graphs per group, interleaved across the
// groups so that every stretch of the run sees the same mix of sizes.
func corpusInputs(seed int64, perGroup int) ([]input, error) {
	groups, err := graphgen.CorpusSample(seed, perGroup)
	if err != nil {
		return nil, err
	}
	var out []input
	for j := 0; j < len(groups[0].Graphs); j++ {
		for _, gr := range groups {
			if j >= len(gr.Graphs) {
				continue
			}
			g := gr.Graphs[j]
			names := make([]string, g.N())
			for v := range names {
				names[v] = fmt.Sprintf("v%d", v)
			}
			out = append(out, input{query: edgesQuery, body: edgeListBody(g), g: g, names: names, chain: -1})
		}
	}
	return out, nil
}

// hotInputs is serve-hot's working set: count sparse graphs with n
// spread evenly over 80..100, as edge lists.
func hotInputs(seed int64, count int) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]input, count)
	for i := range out {
		n := 80 + i*21/count
		g, err := graphgen.Generate(graphgen.DefaultConfig(n), rng)
		if err != nil {
			return nil, err
		}
		if out[i], err = parsedInput(edgesQuery, edgeListBody(g), -1, 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hotOrder is the timed request order over a working set of size w:
// whole passes, each a fresh seeded permutation, at least requests long.
func hotOrder(seed int64, w, requests int) []int {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	for len(order) < requests {
		order = append(order, rng.Perm(w)...)
	}
	return order
}

// chainInputs is count graphgen.DeltaChain edit chains with n spread
// evenly over 60..100, as DOT with every vertex name prefixed by
// prefix and the chain number — so no two chains share a name and the
// daemon's similarity probe can only match a chain's own base. The
// requests are interleaved: step 0 of every chain, then step 1, and so
// on, as many editors sharing one connection would send them. A step
// whose edits cancel out, leaving a graph its chain already sent, is
// dropped: the daemon rightly answers a repeat from its result cache,
// and edit-stream is about edits.
func chainInputs(seed int64, prefix string, count, steps int) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	chains := make([][]input, count)
	for c := range chains {
		n := 60 + c*41/count
		graphs, tables, err := graphgen.DeltaChain(rng.Int63(), n, steps, chainEdits)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for s, g := range graphs {
			if sig := graphSig(g, tables[s]); seen[sig] {
				continue
			} else {
				seen[sig] = true
			}
			names := make([]string, len(tables[s]))
			for v, name := range tables[s] {
				names[v] = fmt.Sprintf("%s%03d_%s", prefix, c, name)
			}
			in, err := parsedInput(dotQuery, dotBody(g, names), c, len(chains[c]))
			if err != nil {
				return nil, err
			}
			chains[c] = append(chains[c], in)
		}
	}
	var out []input
	for s := 0; s < steps; s++ {
		for c := range chains {
			if s < len(chains[c]) {
				out = append(out, chains[c][s])
			}
		}
	}
	return out, nil
}

// graphSig identifies a graph as the daemon's cache key does: vertex
// names in index order and the edge set.
func graphSig(g *antlayer.Graph, names []string) string {
	edges := make([]string, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, fmt.Sprintf("%d>%d", e.U, e.V))
	}
	sort.Strings(edges)
	return strings.Join(names, ",") + "|" + strings.Join(edges, ",")
}

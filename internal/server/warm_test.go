package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"antlayer/internal/core"
	"antlayer/internal/dot"
	"antlayer/internal/graphgen"
)

// editedDOT is demoDOT with one vertex renamed-in-place edit: vertex f
// added as a new sink under e. High name overlap with demoDOT (6 of 7),
// so the similarity probe finds the lineage.
const editedDOT = `digraph g {
	a -> b; a -> c;
	b -> d; c -> d;
	d -> e;
	e -> f;
}`

// unrelatedDOT shares no vertex names with demoDOT.
const unrelatedDOT = `digraph g {
	x -> y; y -> z;
}`

// TestWarmHeadersAndMetrics drives the transparent warm path end to end:
// a cold request on one graph, then a near-miss request on a lightly
// edited graph. The second must carry X-Warm: hit with the first's graph
// key as its base, and the counters must account one miss (the cold
// probe), one hit and saved tours.
func TestWarmHeadersAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp1, _ := postLayer(t, ts, "algo=aco&tours=9&seed=1", demoDOT)
	if got := resp1.Header.Get("X-Warm"); got != "miss" {
		t.Errorf("cold request X-Warm = %q, want miss", got)
	}
	baseKey := resp1.Header.Get("X-Graph-Key")
	if baseKey == "" {
		t.Fatal("no X-Graph-Key on the cold answer")
	}

	resp2, body2 := postLayer(t, ts, "algo=aco&tours=9&seed=1", editedDOT)
	if got := resp2.Header.Get("X-Warm"); got != "hit" {
		t.Fatalf("edited request X-Warm = %q, want hit (body: %s)", got, body2)
	}
	if got := resp2.Header.Get("X-Warm-Base"); got != baseKey {
		t.Errorf("X-Warm-Base = %q, want the cold answer's graph key %q", got, baseKey)
	}
	var res testResponse
	if err := json.Unmarshal(body2, &res); err != nil {
		t.Fatal(err)
	}
	if res.ToursRun >= 9 {
		t.Errorf("warm-started run executed %d tours, want fewer than the cold budget 9", res.ToursRun)
	}

	m := s.Metrics()
	if m.WarmHits != 1 || m.WarmMisses != 1 {
		t.Errorf("warm hits/misses = %d/%d, want 1/1", m.WarmHits, m.WarmMisses)
	}
	if m.WarmToursSaved <= 0 {
		t.Errorf("warm_tours_saved = %d, want > 0", m.WarmToursSaved)
	}
	if m.WarmEntries < 1 || m.WarmBytes <= 0 {
		t.Errorf("warm cache gauges = %d entries / %d bytes, want populated", m.WarmEntries, m.WarmBytes)
	}
}

// TestWarmReplayByteIdentical: the same warm lineage replayed is served
// from the result cache byte-identically — the generation-stamped
// effective key guarantees a warm body is never conflated with a cold
// one or with a body computed against a newer state.
func TestWarmReplayByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postLayer(t, ts, "algo=aco&tours=9&seed=1", demoDOT)

	resp1, body1 := postLayer(t, ts, "algo=aco&tours=9&seed=1", editedDOT)
	if resp1.Header.Get("X-Warm") != "hit" {
		t.Fatalf("first edited request X-Warm = %q, want hit", resp1.Header.Get("X-Warm"))
	}
	resp2, body2 := postLayer(t, ts, "algo=aco&tours=9&seed=1", editedDOT)
	if !bytes.Equal(body1, body2) {
		t.Errorf("warm replay diverges:\n%s\n%s", body1, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("replayed warm request X-Cache = %q, want hit", got)
	}
}

// TestWarmDisabledAndOptOuts: warm=false requests, non-colony
// algorithms and unrelated graphs never warm-start.
func TestWarmDisabledAndOptOuts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postLayer(t, ts, "algo=aco&tours=9&seed=1", demoDOT)

	resp, _ := postLayer(t, ts, "algo=aco&tours=9&seed=1&warm=false", editedDOT)
	if got := resp.Header.Get("X-Warm"); got != "" {
		t.Errorf("warm=false request X-Warm = %q, want unset", got)
	}
	resp, _ = postLayer(t, ts, "algo=lpl", editedDOT)
	if got := resp.Header.Get("X-Warm"); got != "" {
		t.Errorf("algo=lpl request X-Warm = %q, want unset", got)
	}
	resp, _ = postLayer(t, ts, "algo=aco&tours=9&seed=1", unrelatedDOT)
	if got := resp.Header.Get("X-Warm"); got != "miss" {
		t.Errorf("unrelated-graph request X-Warm = %q, want miss", got)
	}

	// A daemon with warm disabled never probes and never counts.
	s2, ts2 := newTestServer(t, Config{WarmCacheBytes: -1})
	postLayer(t, ts2, "algo=aco&tours=9&seed=1", demoDOT)
	resp, _ = postLayer(t, ts2, "algo=aco&tours=9&seed=1", editedDOT)
	if got := resp.Header.Get("X-Warm"); got != "" {
		t.Errorf("disabled daemon X-Warm = %q, want unset", got)
	}
	if m := s2.Metrics(); m.WarmHits != 0 || m.WarmMisses != 0 || m.WarmEntries != 0 {
		t.Errorf("disabled daemon warm counters = %+v, want all zero", m)
	}
}

// randomEdgeList is a random n-vertex DAG in edge-list format.
func randomEdgeList(t *testing.T, n int, seed int64) string {
	t.Helper()
	g, err := graphgen.Generate(graphgen.DefaultConfig(n), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := dot.WriteEdgeList(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWarmEdgeListsSkipProbe: edge-list vertices are all named v0…vN-1, so
// the name-similarity probe would warm-start an unrelated edge list of
// similar size from whichever came before. Without base= an edge list runs
// cold (no X-Warm header, no warm miss) and answers what a cold Compute
// does; its state is still published, so base= can name it.
func TestWarmEdgeListsSkipProbe(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	const query = "format=edges&algo=aco&tours=9&seed=1"
	first, second := randomEdgeList(t, 60, 1), randomEdgeList(t, 60, 2)

	resp1, _ := postLayer(t, ts, query, first)
	resp2, body2 := postLayer(t, ts, query, second)
	for i, resp := range []*http.Response{resp1, resp2} {
		if got := resp.Header.Get("X-Warm"); got != "" {
			t.Errorf("edge list %d: X-Warm = %q, want no header", i+1, got)
		}
	}
	q, _ := url.ParseQuery(query)
	req, err := ParseRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	g, names, err := ParseGraph(req, strings.NewReader(second))
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := Compute(context.Background(), req, g, names)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body2, cold) {
		t.Errorf("second edge list answered differently from a cold Compute:\n got %s\nwant %s", body2, cold)
	}
	if m := s.Metrics(); m.WarmHits != 0 || m.WarmMisses != 0 || m.WarmEntries != 2 {
		t.Errorf("warm hits/misses/entries = %d/%d/%d, want 0/0/2", m.WarmHits, m.WarmMisses, m.WarmEntries)
	}

	// base= still warm-starts an edge list from a named anchor.
	resp3, _ := postLayer(t, ts, query+"&base="+resp1.Header.Get("X-Graph-Key"), second)
	if got := resp3.Header.Get("X-Warm"); got != "hit" {
		t.Errorf("base= on an edge list: X-Warm = %q, want hit", got)
	}
}

// TestWarmBaseKnob: base=<graph key> pins the lineage exactly, bypassing
// the similarity probe — even for a graph the probe would not match.
func TestWarmBaseKnob(t *testing.T) {
	_, ts := newTestServer(t, Config{WarmMinSimilarity: 0.99})
	resp1, _ := postLayer(t, ts, "algo=aco&tours=9&seed=1", demoDOT)
	baseKey := resp1.Header.Get("X-Graph-Key")

	// At threshold 0.99 the probe rejects the edited graph...
	resp2, _ := postLayer(t, ts, "algo=aco&tours=9&seed=1", editedDOT)
	if got := resp2.Header.Get("X-Warm"); got != "miss" {
		t.Fatalf("probe at 0.99 X-Warm = %q, want miss", got)
	}
	// ...but naming the lineage explicitly warm-starts anyway.
	resp3, _ := postLayer(t, ts, "algo=aco&tours=9&seed=2&base="+baseKey, editedDOT)
	if got := resp3.Header.Get("X-Warm"); got != "hit" {
		t.Errorf("base= request X-Warm = %q, want hit", got)
	}
	if got := resp3.Header.Get("X-Warm-Base"); got != baseKey {
		t.Errorf("X-Warm-Base = %q, want %q", got, baseKey)
	}

	// An unknown base is a miss, not an error.
	resp4, _ := postLayer(t, ts, "algo=aco&tours=9&seed=3&base=doesnotexist", editedDOT)
	if got := resp4.Header.Get("X-Warm"); got != "miss" {
		t.Errorf("unknown base X-Warm = %q, want miss", got)
	}
	// base= on a non-colony algorithm is rejected at parse time.
	resp5, body5 := postLayer(t, ts, "algo=lpl&base="+baseKey, editedDOT)
	if resp5.StatusCode != http.StatusBadRequest {
		t.Errorf("base= with algo=lpl status %d, want 400 (%s)", resp5.StatusCode, body5)
	}
}

// TestWarmExactRepeatPrefersResultCache: an identical repeat request is
// a plain cache hit under its cold key — no warm rewrite, bytes
// identical to the first answer.
func TestWarmExactRepeatPrefersResultCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp1, body1 := postLayer(t, ts, "algo=aco&tours=9&seed=1", demoDOT)
	if resp1.Header.Get("X-Cache") != "miss" {
		t.Fatal("first request should compute")
	}
	resp2, body2 := postLayer(t, ts, "algo=aco&tours=9&seed=1", demoDOT)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("repeat answer diverges from first")
	}
	if m := s.Metrics(); m.WarmHits != 0 {
		t.Errorf("exact repeat counted %d warm hits, want 0", m.WarmHits)
	}
}

// TestWarmThroughJobs: the async job path plans warm starts exactly like
// /layer.
func TestWarmThroughJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postLayer(t, ts, "algo=aco&tours=9&seed=1", demoDOT)

	resp, status := postJob(t, ts, "algo=aco&tours=9&seed=1", editedDOT)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d", resp.StatusCode)
	}
	final, view := pollUntilTerminal(t, ts, status.ID)
	if got := final.Header.Get("X-Job-State"); got != "done" {
		t.Fatalf("job finished %q (%s)", got, view.raw)
	}
	var res testResponse
	if err := json.Unmarshal(view.raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.ToursRun >= 9 {
		t.Errorf("warm-started job ran %d tours, want fewer than 9", res.ToursRun)
	}
	if m := s.Metrics(); m.WarmHits != 1 {
		t.Errorf("warm hits = %d, want 1 (the job)", m.WarmHits)
	}
}

// TestWarmStateFlowsThroughIslandAlgo: algo=island exports and reuses
// state exactly like algo=aco, and tours saved are counted per island.
func TestWarmStateFlowsThroughIslandAlgo(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp1, _ := postLayer(t, ts, "algo=island&islands=2&tours=6&migration-interval=2&seed=4", demoDOT)
	if got := resp1.Header.Get("X-Warm"); got != "miss" {
		t.Fatalf("cold island request X-Warm = %q, want miss", got)
	}
	resp2, body2 := postLayer(t, ts, "algo=island&islands=2&tours=6&migration-interval=2&seed=4", editedDOT)
	if got := resp2.Header.Get("X-Warm"); got != "hit" {
		t.Fatalf("edited island request X-Warm = %q, want hit (%s)", got, body2)
	}
	m := s.Metrics()
	if m.WarmToursSaved <= 0 {
		t.Errorf("warm_tours_saved = %d, want > 0", m.WarmToursSaved)
	}
}

// TestTraceSamplingDisabled: with head sampling off (TraceSample < 0)
// requests still echo a correlatable X-Request-ID, but no trace is
// minted — the ring stays empty.
func TestTraceSamplingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: -1})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/layer?algo=lpl", bytes.NewReader([]byte(demoDOT)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "sampled-out-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "sampled-out-1" {
		t.Errorf("X-Request-ID echo = %q, want sampled-out-1", got)
	}
	// A request without an inbound ID still gets one minted for the echo.
	resp2, _ := postLayer(t, ts, "algo=lpl&seed=2", demoDOT)
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("sampled-out request echoed no X-Request-ID")
	}
	// Neither request entered the trace ring.
	tresp, err := http.Get(ts.URL + "/traces/sampled-out-1")
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /traces/sampled-out-1 status %d, want 404", tresp.StatusCode)
	}
	lresp, err := http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(doc.Traces) != 0 {
		t.Errorf("trace ring holds %d traces with sampling off, want 0", len(doc.Traces))
	}
}

// TestWarmCacheEvictionAndGenerations exercises the warm cache directly:
// byte-weighted LRU eviction, oversize admission refusal, replacement
// bumping generations, and the deterministic newest-generation tie
// break in the probe.
func TestWarmCacheEvictionAndGenerations(t *testing.T) {
	mkState := func(n, l int) *core.State {
		s := &core.State{L: l, Tau: make([][]float64, n)}
		for v := range s.Tau {
			s.Tau[v] = make([]float64, l)
		}
		return s
	}
	names := func(n int, prefix string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}

	c := newWarmCache(8 << 10)
	// An entry above a quarter of the budget is refused.
	c.put("big", names(40, "b"), mkState(40, 20)) // 40 rows × 20 cols × 8B > 2 KiB
	if e, b := c.stats(); e != 0 {
		t.Fatalf("oversize state admitted (%d entries, %d bytes)", e, b)
	}
	// Fill until eviction: each small state ~1 KiB.
	for i := 0; i < 12; i++ {
		c.put(fmt.Sprintf("k%d", i), names(10, fmt.Sprintf("s%d_", i)), mkState(10, 12))
	}
	entries, bytes := c.stats()
	if bytes > 8<<10 {
		t.Errorf("cache holds %d bytes over the 8 KiB budget", bytes)
	}
	if entries == 0 || entries == 12 {
		t.Errorf("eviction kept %d of 12 entries, want some but not all", entries)
	}
	if _, ok := c.get("k0"); ok {
		t.Error("oldest entry survived eviction")
	}

	// Replacement bumps the generation.
	c2 := newWarmCache(1 << 20)
	c2.put("g", names(5, "v"), mkState(5, 4))
	e1, _ := c2.get("g")
	gen1 := e1.gen
	c2.put("g", names(5, "v"), mkState(5, 4))
	e2, _ := c2.get("g")
	if e2.gen <= gen1 {
		t.Errorf("replacement generation %d not above %d", e2.gen, gen1)
	}

	// Probe tie break: two equally similar entries — the newest wins.
	c3 := newWarmCache(1 << 20)
	c3.put("old", names(6, "v"), mkState(6, 4))
	c3.put("new", names(6, "v"), mkState(6, 4))
	e, sim := c3.probe(names(6, "v"), 0.5)
	if e == nil || e.key != "new" {
		t.Fatalf("probe tie went to %+v, want the newest entry", e)
	}
	if sim != 1.0 {
		t.Errorf("identical name set similarity %v, want 1.0", sim)
	}
	// Below the threshold: nothing.
	if e, _ := c3.probe(names(6, "x"), 0.5); e != nil {
		t.Errorf("probe matched disjoint names: %+v", e)
	}
}

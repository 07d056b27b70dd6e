package server

import (
	"container/list"
	"math"
	"sort"
	"strconv"
	"sync"

	"antlayer"
	"antlayer/internal/core"
)

// warmCache is the daemon's second cache: where resultCache holds
// finished bodies keyed by the full (graph, params) hash, warmCache
// holds colony States keyed by the canonical graph hash alone (see
// graphKey), so a request for a graph the daemon has never seen in this
// exact form can still inherit the pheromone matrix of a near-identical
// one. Near-misses are found by a cheap similarity probe over vertex
// names: an inverted name→entry index counts how many vertex names the
// request shares with each cached graph, and the best entry wins when
// the overlap ratio clears the configured threshold. Clients that know
// their lineage skip the probe with the base= knob.
//
// Eviction is byte-weighted LRU against the configured budget (a
// pheromone matrix is O(N·L) float64s — a few hundred KiB for the
// corpus sizes, tens of MiB for large graphs), and a single state
// bigger than a quarter of the budget is never admitted. Storing a key
// again replaces the entry and bumps its generation; the generation is
// part of every warm result-cache key, so a body computed against an
// older state is never replayed for a newer one.
//
// Safe for concurrent use. States are stored and handed out as-is:
// Server.warmPlan remaps (copies) before a colony ever sees one, and
// everything else treats them as immutable.
type warmCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	gen      uint64
	ll       *list.List // front = most recently used
	m        map[string]*list.Element
	index    map[string]map[*list.Element]struct{} // vertex name → entries containing it
}

type warmEntry struct {
	key    string // canonical graph hash (graphKey)
	names  []string
	tokens []string // unique vertex names, for index bookkeeping
	state  *core.State
	gen    uint64
	bytes  int64
}

func newWarmCache(maxBytes int64) *warmCache {
	return &warmCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		m:        make(map[string]*list.Element),
		index:    make(map[string]map[*list.Element]struct{}),
	}
}

// uniqueNames returns the sorted distinct vertex names — the token set
// the similarity probe votes over.
func uniqueNames(names []string) []string {
	seen := make(map[string]struct{}, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if _, ok := seen[n]; !ok {
			seen[n] = struct{}{}
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// put stores (or replaces) the state for a graph. The entry's weight is
// the state's estimated resident size plus the name bytes.
func (c *warmCache) put(key string, names []string, state *core.State) {
	if c == nil || state == nil {
		return
	}
	bytes := state.MemoryBytes()
	for _, n := range names {
		bytes += int64(len(n)) + 16
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && bytes > c.maxBytes/4 {
		// One giant matrix would purge most of the working set; existing
		// entries keep serving instead.
		if el, ok := c.m[key]; ok {
			c.removeLocked(el)
		}
		return
	}
	c.gen++
	if el, ok := c.m[key]; ok {
		c.removeLocked(el)
	}
	e := &warmEntry{
		key:    key,
		names:  append([]string(nil), names...),
		tokens: uniqueNames(names),
		state:  state,
		gen:    c.gen,
		bytes:  bytes,
	}
	el := c.ll.PushFront(e)
	c.m[key] = el
	c.bytes += bytes
	for _, tok := range e.tokens {
		set := c.index[tok]
		if set == nil {
			set = make(map[*list.Element]struct{})
			c.index[tok] = set
		}
		set[el] = struct{}{}
	}
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil || oldest == el {
			break
		}
		c.removeLocked(oldest)
	}
}

func (c *warmCache) removeLocked(el *list.Element) {
	e := el.Value.(*warmEntry)
	c.ll.Remove(el)
	delete(c.m, e.key)
	c.bytes -= e.bytes
	for _, tok := range e.tokens {
		if set := c.index[tok]; set != nil {
			delete(set, el)
			if len(set) == 0 {
				delete(c.index, tok)
			}
		}
	}
}

// get returns the entry for an exact graph key (the base= path) and
// marks it recently used.
func (c *warmCache) get(key string) (*warmEntry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*warmEntry), true
}

// probe finds the cached graph most similar to the request's vertex-name
// set: similarity is |shared names| / max(|request names|, |entry
// names|), so an identical graph scores 1 and a one-vertex edit on an
// n-vertex graph scores about (n-1)/n. The best entry at or above
// minSim wins; ties go to the newest generation, so the outcome is
// deterministic for a given cache content. Returns nil when nothing
// clears the bar.
func (c *warmCache) probe(names []string, minSim float64) (*warmEntry, float64) {
	if c == nil {
		return nil, 0
	}
	tokens := uniqueNames(names)
	if len(tokens) == 0 {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	votes := make(map[*list.Element]int)
	for _, tok := range tokens {
		for el := range c.index[tok] {
			votes[el]++
		}
	}
	var best *list.Element
	bestSim := 0.0
	for el, shared := range votes {
		e := el.Value.(*warmEntry)
		denom := len(tokens)
		if len(e.tokens) > denom {
			denom = len(e.tokens)
		}
		sim := float64(shared) / float64(denom)
		if best == nil || sim > bestSim ||
			(sim == bestSim && e.gen > best.Value.(*warmEntry).gen) {
			best, bestSim = el, sim
		}
	}
	if best == nil || bestSim < minSim {
		return nil, 0
	}
	c.ll.MoveToFront(best)
	return best.Value.(*warmEntry), bestSim
}

// stats returns the entry count and resident bytes for /metrics.
func (c *warmCache) stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// The warm plan's tour budget. A warm colony resumes near the target, so
// it gets warmToursFrac of the requested tours (rounded up), and
// warmStallTours arms the stop-stagnant early stop on warm runs that set
// none, turning the reduced budget into actual early exits.
const (
	warmToursFrac  = 1.0 / 3.0
	warmStallTours = 3
)

// warmRun carries what computeCached needs to account for a warm-started
// request: the lineage (for logs and the X-Warm-Base header) and the
// tour budget the request would have burned cold, so tours_saved can be
// measured against what actually ran.
type warmRun struct {
	baseKey    string
	similarity float64
	coldTours  int
}

// warmPlan decides how a parsed request computes: cold, or warm-started
// from a cached state. For every warm-eligible request (algo aco or
// island, warm not disabled, no caller-supplied state) it flips on
// state export, so cold computes feed the warm cache. When a usable
// base state exists — named by base=, or found by the similarity probe
// (never run for edge lists, whose vertex names carry no identity) — it
// is remapped onto the request's graph by vertex name and injected
// as ACO.Warm, the tour budget is cut to warmToursFrac of the cold
// budget, and the stop-stagnant early stop is armed (unless the request
// set its own); the effective result-cache key gains the lineage
// (base key + generation) so warm bodies never collide with cold ones
// and replays of the same lineage stay byte-identical.
//
// Returns the possibly-rewritten request and key, and a non-nil
// *warmRun exactly when the request was warm-started. The bool reports
// whether the request was eligible and probed at all (for the miss
// counter).
func (s *Server) warmPlan(req Request, g *antlayer.Graph, names []string, key, gk string) (Request, string, *warmRun, bool) {
	if s.warm == nil || !req.Warm || req.ACO.Warm != nil {
		return req, key, nil, false
	}
	if req.Algo != "aco" && req.Algo != "island" {
		return req, key, nil, false
	}
	req.ACO.ExportState = true
	if _, ok := s.cache.Get(key); ok {
		// The exact body is already in the result cache: serving it beats
		// re-running even a warm colony, and exact repeats stay
		// byte-identical to their first answer. Warm planning is only for
		// requests that actually have to compute.
		return req, key, nil, false
	}
	var entry *warmEntry
	sim := 1.0
	switch {
	case req.Base != "":
		entry, _ = s.warm.get(req.Base)
	case req.Format == "edges":
		// Edge-list vertices are all named v0…vN-1, so name overlap would
		// pair any two edge lists of similar size. They still publish
		// their cold states for base= to name.
		return req, key, nil, false
	default:
		entry, sim = s.warm.probe(names, s.cfg.WarmMinSimilarity)
	}
	if entry == nil {
		// Eligible, probed, nothing usable: a warm miss — the cold run
		// that follows will export its state and seed the next one.
		s.metrics.warmMisses.Add(1)
		return req, key, nil, true
	}
	mapping := core.MapByName(entry.names, names)
	req.ACO.Warm = entry.state.Remap(mapping, g.N())
	coldTours := req.ACO.Tours
	islands := 1
	if req.Algo == "island" {
		islands = req.options().IslandOf().Islands
	}
	warmTours := int(math.Ceil(float64(req.ACO.Tours) * warmToursFrac))
	if warmTours < 1 {
		warmTours = 1
	}
	if warmTours < req.ACO.Tours {
		req.ACO.Tours = warmTours
	}
	if req.ACO.StopAfterStagnantTours == 0 {
		req.ACO.StopAfterStagnantTours = warmStallTours
	}
	effKey := key + "|warm|" + entry.key + "|" + strconv.FormatUint(entry.gen, 10)
	return req, effKey, &warmRun{baseKey: entry.key, similarity: sim, coldTours: coldTours * islands}, true
}

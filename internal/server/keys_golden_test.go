package server

import (
	"net/http"
	"testing"
)

// TestKeyGolden pins the exact X-Cache-Key and X-Graph-Key hex of a fixed
// set of requests. Clients hold on to these values: an X-Graph-Key comes
// back as base= to name a warm-start lineage, and an X-Cache-Key names a
// result-cache entry. Any change to the canonical forms the two hashes
// cover breaks those handles and must show up as a diff here. Rows that
// differ only in a knob the keys exclude (workers) or canonicalise
// (explicit default islands/migration-interval, island knobs under a
// non-island algorithm) share a row's golden values on purpose.
func TestKeyGolden(t *testing.T) {
	const (
		dotGraph   = "5aa3350d1b2e9124012afb02b04031ccf76c250d404fea86cf89cf20ff468a87"
		edgesGraph = "8ba877f4a8be1bb5ecfa63a5d2e8214a8bdfb140a2f7e324b134d58852a15fad"
		acoDOT     = "2a0293303c359777687e335fdecd3cb41c55e83eb2b47fba035fb7bf9a4c16f2"
		acoEdges   = "bd25451bb5b55b00b2313d214864fc12466c2f70a80feefd128e706480eec43e"
		lplDOT     = "b858e1e9e885bd2251e1556c84a1b6f97cd7ca38cb47b1d8473d558d74206fa3"
		islandDOT  = "84f81d2a6ba9ce61d43773bfa16c979ea099fc7c371316abfce4896bd59a4a3d"
	)
	const edges = "5 5\n0 1\n0 2\n1 3\n2 3\n3 4\n"
	cases := []struct {
		query, body      string
		cacheKey, graphK string
	}{
		{"seed=1&tours=2", demoDOT, acoDOT, dotGraph},
		{"seed=1&tours=2&workers=3", demoDOT, acoDOT, dotGraph},
		{"seed=1&tours=2&islands=3&migration-interval=5", demoDOT, acoDOT, dotGraph},
		{"format=edges&seed=1&tours=2", edges, acoEdges, edgesGraph},
		{"format=edges&seed=1&tours=2&workers=2", edges, acoEdges, edgesGraph},
		{"algo=lpl", demoDOT, lplDOT, dotGraph},
		{"algo=lpl&islands=4&migration-interval=2", demoDOT, lplDOT, dotGraph},
		{"algo=lpl&workers=2", demoDOT, lplDOT, dotGraph},
		{"algo=island&seed=1&tours=2", demoDOT, islandDOT, dotGraph},
		{"algo=island&seed=1&tours=2&islands=4&migration-interval=2", demoDOT, islandDOT, dotGraph},
		{"algo=island&seed=1&tours=2&workers=2", demoDOT, islandDOT, dotGraph},
	}
	_, ts := newTestServer(t, Config{})
	for _, c := range cases {
		resp, body := postLayer(t, ts, c.query, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.query, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache-Key"); got != c.cacheKey {
			t.Errorf("%s: X-Cache-Key = %s, want %s", c.query, got, c.cacheKey)
		}
		if got := resp.Header.Get("X-Graph-Key"); got != c.graphK {
			t.Errorf("%s: X-Graph-Key = %s, want %s", c.query, got, c.graphK)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"

	"antlayer"
)

// The correctness checks every operation passes before it counts as
// succeeded. A failed check counts against ok_frac like a failed request.

// checkLayering verifies a layering of g: every vertex sits on a layer
// >= 1 and every edge (u, v) points down, layer(u) > layer(v).
func checkLayering(l *antlayer.Layering, g *antlayer.Graph) error {
	for v := 0; v < g.N(); v++ {
		if l.Layer(v) < 1 {
			return fmt.Errorf("vertex %d on layer %d", v, l.Layer(v))
		}
	}
	for _, e := range g.Edges() {
		if l.Layer(e.U) <= l.Layer(e.V) {
			return fmt.Errorf("edge %d->%d on layers %d->%d", e.U, e.V, l.Layer(e.U), l.Layer(e.V))
		}
	}
	return nil
}

// layerBody is the part of a /layer answer the checks read.
type layerBody struct {
	Metrics struct {
		Height     int     `json:"height"`
		WidthIncl  float64 `json:"width_incl"`
		DummyCount int     `json:"dummy_count"`
	} `json:"metrics"`
	ToursRun int        `json:"tours_run"`
	Layers   [][]string `json:"layers"`
}

// checkBody decodes a /layer answer and verifies its layering of the
// request's graph: every vertex named exactly once, every edge pointing
// from a higher layer to a lower one (layers[0] is layer 1).
func checkBody(body []byte, in input) (layerBody, error) {
	var b layerBody
	if err := json.Unmarshal(body, &b); err != nil {
		return b, fmt.Errorf("decode answer: %w", err)
	}
	layer := make(map[string]int, len(in.names))
	for i, row := range b.Layers {
		for _, name := range row {
			if _, dup := layer[name]; dup {
				return b, fmt.Errorf("vertex %q placed twice", name)
			}
			layer[name] = i + 1
		}
	}
	if len(layer) != len(in.names) {
		return b, fmt.Errorf("%d vertices placed, graph has %d", len(layer), len(in.names))
	}
	for _, name := range in.names {
		if layer[name] == 0 {
			return b, fmt.Errorf("vertex %q not placed", name)
		}
	}
	for _, e := range in.g.Edges() {
		u, v := in.names[e.U], in.names[e.V]
		if layer[u] <= layer[v] {
			return b, fmt.Errorf("edge %s->%s on layers %d->%d", u, v, layer[u], layer[v])
		}
	}
	return b, nil
}

// quality is an answer's H+W (height plus width including dummies) and
// dummy count, the paper's quality criteria.
func (b layerBody) quality() (hw, dummies float64) {
	return float64(b.Metrics.Height) + b.Metrics.WidthIncl, float64(b.Metrics.DummyCount)
}

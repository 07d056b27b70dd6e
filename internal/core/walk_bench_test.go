package core

// Benchmarks for the ant-walk hot path: one full solution construction
// (BenchmarkWalk), one per-vertex layer decision (BenchmarkChooseLayer),
// the per-walk RNG reseed (BenchmarkRNGReseed) and whole colony runs over a
// corpus sample (BenchmarkCorpusColony). They report allocations — the per-vertex decision path is required to be
// allocation-free (see DESIGN.md, hot path), so allocs/op regressions here
// are correctness bugs for the performance contract, not noise.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
)

// benchAnt builds an ant over the stretched search space of g, mirroring
// testAnt without the *testing.T plumbing.
func benchAnt(b *testing.B, g *dag.Graph, p Params, seed int64) *ant {
	b.Helper()
	maxLayers := p.MaxLayers
	if maxLayers == 0 {
		maxLayers = g.N()
	}
	s, err := Stretch(g, maxLayers, p.Stretch)
	if err != nil {
		b.Fatal(err)
	}
	L := s.NumLayers()
	if L == 0 {
		L = 1
	}
	tau := make([][]float64, g.N())
	for v := range tau {
		tau[v] = make([]float64, L)
		for i := range tau[v] {
			tau[v][i] = p.Tau0
		}
	}
	// newAnt takes τ^α; the helper only runs at α = 1, where the raw
	// matrix is the snapshot (see testAnt for the α ≠ 1 construction).
	if p.Alpha != 1 {
		b.Fatalf("benchAnt requires Alpha == 1, got %g", p.Alpha)
	}
	assign := s.Assignment()
	return newAnt(g, &p, tau, L, assign, layerWidths(g, assign, L, p.DummyWidth), seed, newExpMemo())
}

func benchGraph(b *testing.B, n int) *dag.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g, err := graphgen.Generate(graphgen.DefaultConfig(n), rng)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkWalk measures one ant's full solution construction — the unit of
// work the colony multiplies by Ants×Tours — including the per-tour ant
// preparation (construction before the scratch-buffer refactor, reset after).
func BenchmarkWalk(b *testing.B) {
	for _, n := range []int{30, 60, 100} {
		g := benchGraph(b, n)
		for _, heur := range []HeuristicMode{HeuristicObjective, HeuristicLayerWidth} {
			b.Run(fmt.Sprintf("n=%d/heur=%s", n, heur), func(b *testing.B) {
				p := DefaultParams()
				p.Heuristic = heur
				a := benchAnt(b, g, p, 1)
				baseAssign := append([]int(nil), a.assign...)
				baseWidths := append([]float64(nil), a.widths...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.reset(baseAssign, baseWidths, a.powTau, 1)
					a.walk()
				}
			})
		}
	}
}

// BenchmarkChooseLayer isolates the per-vertex decision: span evaluation,
// heuristic computation and selection, without the move.
func BenchmarkChooseLayer(b *testing.B) {
	for _, n := range []int{60, 100} {
		g := benchGraph(b, n)
		for _, sel := range []SelectionMode{SelectPseudoRandom, SelectRoulette, SelectArgMax} {
			b.Run(fmt.Sprintf("n=%d/sel=%s", n, sel), func(b *testing.B) {
				p := DefaultParams()
				p.Selection = sel
				a := benchAnt(b, g, p, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v := i % g.N()
					lo, hi := a.span(v)
					a.chooseLayer(v, lo, hi)
				}
			})
		}
	}
}

// BenchmarkRNGReseed measures what every walk pays for its generator: a
// reseed followed by a number of draws, on math/rand's own source (stock)
// and on the lazily seeded one (lazy). Both produce the same stream; stock
// pays for the whole 607-word register up front, lazy per word read.
func BenchmarkRNGReseed(b *testing.B) {
	for _, src := range []struct {
		name string
		new  func() rand.Source
	}{
		{"stock", func() rand.Source { return rand.NewSource(1) }},
		{"lazy", func() rand.Source { return newLazySource(1) }},
	} {
		for _, draws := range []int{0, 64, 300, 607, 3000} {
			b.Run(fmt.Sprintf("%s/draws=%d", src.name, draws), func(b *testing.B) {
				r := rand.New(src.new())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Seed(int64(i))
					for k := 0; k < draws; k++ {
						r.Int63()
					}
				}
			})
		}
	}
}

// BenchmarkCorpusColony runs the default colony (Workers=1) over one graph
// of every corpus group, n = 10…100: the paper-corpus workload's kernel
// without the public API around it. One op is the whole sample.
func BenchmarkCorpusColony(b *testing.B) {
	groups, err := graphgen.CorpusSample(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	p.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, grp := range groups {
			for _, g := range grp.Graphs {
				if _, err := Run(context.Background(), g, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

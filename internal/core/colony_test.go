package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
	"antlayer/internal/layering"
	"antlayer/internal/longestpath"
)

func TestRunValidLayering(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for i := 0; i < 10; i++ {
		g, err := graphgen.Generate(graphgen.DefaultConfig(10+rng.Intn(50)), rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), g, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Layering.Validate(); err != nil {
			t.Fatalf("colony layering invalid: %v", err)
		}
		if res.Layering.NumLayers() != res.Layering.Height() {
			t.Fatal("colony layering not normalized")
		}
		if res.Height != res.Layering.Height() {
			t.Fatalf("Result.Height %d != layering height %d", res.Height, res.Layering.Height())
		}
		if res.Objective <= 0 || res.Objective > 1 {
			t.Fatalf("objective = %g", res.Objective)
		}
		if len(res.History) != DefaultParams().Tours {
			t.Fatalf("history length = %d", len(res.History))
		}
		if res.BestTour < 0 || res.BestTour > DefaultParams().Tours {
			t.Fatalf("BestTour = %d", res.BestTour)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g, err := graphgen.Generate(graphgen.DefaultConfig(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Seed = 12345
	a, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if a.Layering.Layer(v) != b.Layering.Layer(v) {
			t.Fatal("same seed produced different layerings")
		}
	}
	if a.Objective != b.Objective {
		t.Fatal("same seed produced different objectives")
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g, err := graphgen.Generate(graphgen.DefaultConfig(50), rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := DefaultParams()
	seq.Seed = 7
	seq.Workers = 1
	par := seq
	par.Workers = 4
	a, err := Run(context.Background(), g, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), g, par)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if a.Layering.Layer(v) != b.Layering.Layer(v) {
			t.Fatal("parallel run diverged from sequential")
		}
	}
}

// TestRunDeterministicAcrossWorkers is the contract of Params.Workers: the
// full result — layering, objective, best tour and the complete per-tour
// history — is bitwise-identical at any worker count, including the
// GOMAXPROCS default (Workers=0), for both heuristics and all three
// selection modes.
//
// The expected values are golden: they were captured from the code as of
// PR 1 (before the allocation-free hot-path rewrite), so they also pin the
// colony's output bit-for-bit across refactors of the walk internals. The
// assignment hash is FNV-1a over the decimal layers, matching goldenHash.
// If an intentional behaviour change invalidates them, re-capture by
// running each configuration at Workers=1 and printing
// math.Float64bits(res.Objective), res.BestTour, res.Height,
// math.Float64bits(res.Width) and goldenHash(res.Layering).
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	g, err := graphgen.Generate(graphgen.DefaultConfig(60), rng)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		heur       HeuristicMode
		sel        SelectionMode
		objective  uint64 // math.Float64bits of Result.Objective
		bestTour   int
		height     int
		width      uint64 // math.Float64bits of Result.Width
		assignHash uint64
	}{
		{HeuristicObjective, SelectPseudoRandom, 0x3f9e1e1e1e1e1e1e, 2, 13, 0x4035000000000000, 0xf33279d1c81329bf},
		{HeuristicObjective, SelectArgMax, 0x3f9d41d41d41d41d, 0, 10, 0x4039000000000000, 0xa6bc5c52b602f6e4},
		{HeuristicObjective, SelectRoulette, 0x3f9e1e1e1e1e1e1e, 8, 13, 0x4035000000000000, 0x89311749aa853178},
		{HeuristicLayerWidth, SelectPseudoRandom, 0x3f9d41d41d41d41d, 0, 10, 0x4039000000000000, 0xa6bc5c52b602f6e4},
		{HeuristicLayerWidth, SelectArgMax, 0x3f9d41d41d41d41d, 0, 10, 0x4039000000000000, 0xa6bc5c52b602f6e4},
		{HeuristicLayerWidth, SelectRoulette, 0x3f9d41d41d41d41d, 0, 10, 0x4039000000000000, 0xa6bc5c52b602f6e4},
	}
	for _, gc := range golden {
		gc := gc
		t.Run(fmt.Sprintf("%v/%v", gc.heur, gc.sel), func(t *testing.T) {
			base := DefaultParams()
			base.Seed = 424242
			base.Workers = 1
			base.Heuristic = gc.heur
			base.Selection = gc.sel
			want, err := Run(context.Background(), g, base)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(want.Objective); got != gc.objective {
				t.Errorf("objective bits 0x%016x, golden 0x%016x (%g)", got, gc.objective, want.Objective)
			}
			if want.BestTour != gc.bestTour {
				t.Errorf("best tour %d, golden %d", want.BestTour, gc.bestTour)
			}
			if want.Height != gc.height {
				t.Errorf("height %d, golden %d", want.Height, gc.height)
			}
			if got := math.Float64bits(want.Width); got != gc.width {
				t.Errorf("width bits 0x%016x, golden 0x%016x (%g)", got, gc.width, want.Width)
			}
			if got := goldenHash(want.Layering); got != gc.assignHash {
				t.Errorf("assignment hash 0x%016x, golden 0x%016x", got, gc.assignHash)
			}
			for _, workers := range []int{0, 2, 8} {
				p := base
				p.Workers = workers
				got, err := Run(context.Background(), g, p)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < g.N(); v++ {
					if got.Layering.Layer(v) != want.Layering.Layer(v) {
						t.Fatalf("Workers=%d: layer of v%d = %d, want %d",
							workers, v, got.Layering.Layer(v), want.Layering.Layer(v))
					}
				}
				if got.Objective != want.Objective {
					t.Fatalf("Workers=%d: objective %g, want %g", workers, got.Objective, want.Objective)
				}
				if got.BestTour != want.BestTour {
					t.Fatalf("Workers=%d: best tour %d, want %d", workers, got.BestTour, want.BestTour)
				}
				if len(got.History) != len(want.History) {
					t.Fatalf("Workers=%d: history length %d, want %d", workers, len(got.History), len(want.History))
				}
				for i := range want.History {
					if got.History[i] != want.History[i] {
						t.Fatalf("Workers=%d: tour %d stats %+v, want %+v",
							workers, i+1, got.History[i], want.History[i])
					}
				}
			}
		})
	}
}

// goldenHash is FNV-1a over the comma-separated decimal layer assignment,
// the fingerprint the golden table above was captured with.
func goldenHash(l *layering.Layering) uint64 {
	h := fnv.New64a()
	for v := 0; v < l.Graph().N(); v++ {
		fmt.Fprintf(h, "%d,", l.Layer(v))
	}
	return h.Sum64()
}

// TestPowTauSnapshotNonUnitAlpha covers the α ≠ 1 branch of
// powTauSnapshot: the snapshot must hold τ^α for the *current* matrix
// every time it is taken (it is refreshed per tour, after pheromone
// updates), and the ant's scoring must read it.
func TestPowTauSnapshotNonUnitAlpha(t *testing.T) {
	g := graphgen.Path(4)
	p := DefaultParams()
	p.Alpha = 2.5
	c, err := NewColony(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for v, row := range c.tau {
		for i := range row {
			row[i] = 0.5 + float64(v) + 0.1*float64(i)
		}
	}
	pt := c.powTauSnapshot()
	for v, row := range c.tau {
		for i, tau := range row {
			if want := math.Pow(tau, p.Alpha); pt[v][i] != want {
				t.Fatalf("snapshot[%d][%d] = %g, want %g", v, i, pt[v][i], want)
			}
		}
	}
	// A later snapshot must reflect pheromone updates, not the first state.
	c.evaporate()
	pt = c.powTauSnapshot()
	for v, row := range c.tau {
		for i, tau := range row {
			if want := math.Pow(tau, p.Alpha); pt[v][i] != want {
				t.Fatalf("stale snapshot[%d][%d] = %g, want %g", v, i, pt[v][i], want)
			}
		}
	}
	// And scoring multiplies the snapshot entry by η^β.
	a := newAnt(g, &c.p, pt, c.L, c.baseAssign, c.baseWidths, 1, newExpMemo())
	eta := 0.7
	if got, want := a.scoreWith(2, 3, eta), pt[2][2]*math.Pow(eta, p.Beta); got != want {
		t.Fatalf("scoreWith = %g, want %g", got, want)
	}
}

// TestRunDeterministicNonUnitAlpha runs the worker-count determinism
// contract through the α ≠ 1 snapshot-refresh path and a non-integer β
// (the math.Pow fallback of powEta), which the golden matrix — pinned at
// the paper's α = 1, β = 3 — does not reach.
func TestRunDeterministicNonUnitAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, err := graphgen.Generate(graphgen.DefaultConfig(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultParams()
	base.Seed = 31415
	base.Alpha = 3
	base.Beta = 2.5
	base.Workers = 1
	want, err := Run(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Objective <= 0 || want.Objective > 1 {
		t.Fatalf("objective = %g", want.Objective)
	}
	for _, workers := range []int{0, 8} {
		p := base
		p.Workers = workers
		got, err := Run(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Objective != want.Objective {
			t.Fatalf("Workers=%d: objective %g, want %g", workers, got.Objective, want.Objective)
		}
		for v := 0; v < g.N(); v++ {
			if got.Layering.Layer(v) != want.Layering.Layer(v) {
				t.Fatalf("Workers=%d: layer of v%d = %d, want %d",
					workers, v, got.Layering.Layer(v), want.Layering.Layer(v))
			}
		}
		for i := range want.History {
			if got.History[i] != want.History[i] {
				t.Fatalf("Workers=%d: tour %d stats diverged", workers, i+1)
			}
		}
	}
}

// TestRunConcurrentColonies exercises the worker pool from several
// concurrent colony runs at once; under `go test -race` this is the data
// race check for the shared pheromone snapshot and the base layering.
func TestRunConcurrentColonies(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	g, err := graphgen.Generate(graphgen.DefaultConfig(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Seed = 5
	p.Workers = 8
	want, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Run(context.Background(), g, p)
			if err != nil {
				errs[i] = err
				return
			}
			if res.Objective != want.Objective {
				errs[i] = fmt.Errorf("concurrent run objective %g, want %g", res.Objective, want.Objective)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunNeverWorseThanLPL(t *testing.T) {
	// The stretched LPL seed is kept as the incumbent, so the colony's
	// objective can never fall below the seed's — the final H+W is at
	// most the LPL layering's.
	rng := rand.New(rand.NewSource(93))
	for i := 0; i < 10; i++ {
		g, err := graphgen.Generate(graphgen.DefaultConfig(10+rng.Intn(60)), rng)
		if err != nil {
			t.Fatal(err)
		}
		lpl, err := longestpath.Layer(g)
		if err != nil {
			t.Fatal(err)
		}
		lplHW := float64(lpl.Height()) + lpl.WidthIncludingDummies(1)
		p := DefaultParams()
		p.Seed = int64(i)
		res, err := Run(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		acoHW := float64(res.Height) + res.Layering.WidthIncludingDummies(1)
		if acoHW > lplHW+1e-9 {
			t.Fatalf("colony H+W %.1f worse than LPL %.1f", acoHW, lplHW)
		}
	}
}

func TestRunImprovesOnWideGraphs(t *testing.T) {
	// A complete bipartite graph layered by LPL has width a+b... LPL puts
	// the b sinks on layer 1 and a sources on layer 2 (width max(a,b));
	// the colony should find a narrower, taller arrangement.
	g := graphgen.CompleteBipartite(2, 12)
	lpl, _ := longestpath.Layer(g)
	p := DefaultParams()
	p.Tours = 20
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	lplHW := float64(lpl.Height()) + lpl.WidthIncludingDummies(1)
	acoHW := float64(res.Height) + res.Layering.WidthIncludingDummies(1)
	if acoHW > lplHW {
		t.Fatalf("colony H+W %.1f did not improve on LPL %.1f", acoHW, lplHW)
	}
}

func TestRunEdgeCases(t *testing.T) {
	// Empty graph.
	res, err := Run(context.Background(), dag.New(0), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Layering.Graph().N() != 0 {
		t.Fatal("empty graph result wrong")
	}
	// Single vertex.
	res, err = Run(context.Background(), dag.New(1), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Layering.Layer(0) != 1 || res.Height != 1 {
		t.Fatalf("single vertex: layer=%d height=%d", res.Layering.Layer(0), res.Height)
	}
	// Edgeless graph: spreading over layers can lower H+W below n+1.
	res, err = Run(context.Background(), dag.New(9), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	hw := float64(res.Height) + res.Width
	if hw > 10 {
		t.Fatalf("edgeless H+W = %g, want <= 10", hw)
	}
	// Single edge.
	g := dag.New(2)
	g.MustAddEdge(1, 0)
	res, err = Run(context.Background(), g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Height != 2 {
		t.Fatalf("single edge height = %d", res.Height)
	}
	// Path graph: only one layering exists.
	res, err = Run(context.Background(), graphgen.Path(5), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Height != 5 || res.Width != 1 {
		t.Fatalf("path: H=%d W=%g", res.Height, res.Width)
	}
}

func TestRunCyclicInput(t *testing.T) {
	g := dag.New(2)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	if _, err := Run(context.Background(), g, DefaultParams()); err == nil {
		t.Fatal("cyclic input accepted")
	}
}

func TestRunInvalidParams(t *testing.T) {
	g := dag.New(1)
	p := DefaultParams()
	p.Rho = 2
	if _, err := Run(context.Background(), g, p); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestRunMaxLayersCap(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	g, err := graphgen.Generate(graphgen.DefaultConfig(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	lpl, _ := longestpath.Layer(g)
	p := DefaultParams()
	p.MaxLayers = lpl.NumLayers() + 2
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layering.Height() > p.MaxLayers {
		t.Fatalf("height %d exceeds MaxLayers %d", res.Layering.Height(), p.MaxLayers)
	}
}

func TestEvaporateAndDeposit(t *testing.T) {
	g := graphgen.Path(3)
	p := DefaultParams()
	c, err := NewColony(g, p)
	if err != nil {
		t.Fatal(err)
	}
	c.evaporate()
	for v := range c.tau {
		for _, tau := range c.tau[v] {
			if tau != p.Tau0*(1-p.Rho) {
				t.Fatalf("tau after evaporation = %g", tau)
			}
		}
	}
	a := newAnt(g, &p, c.tau, c.L, c.baseAssign, c.baseWidths, 1, newExpMemo())
	a.walk()
	before := c.tau[0][a.assign[0]-1]
	c.deposit(a)
	after := c.tau[0][a.assign[0]-1]
	if after <= before {
		t.Fatal("deposit did not increase pheromone")
	}
}

func TestTourHistoryMonotoneBest(t *testing.T) {
	// The inherited base never regresses: each tour's best objective is
	// at least... not guaranteed tour-to-tour under exploration, but the
	// final best must equal the max over history.
	rng := rand.New(rand.NewSource(95))
	g, err := graphgen.Generate(graphgen.DefaultConfig(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, h := range res.History {
		if h.BestObjective > best {
			best = h.BestObjective
		}
	}
	// The result is the best of the seed and all walks, so it is at least
	// the best tour objective; equality holds when some walk beat the seed.
	if res.Objective < best {
		t.Fatalf("Objective %g below max history best %g", res.Objective, best)
	}
	if res.BestTour > 0 && res.Objective != best {
		t.Fatalf("BestTour=%d but Objective %g != history best %g", res.BestTour, res.Objective, best)
	}
}

func TestPheromoneConcentrationRises(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	g, err := graphgen.Generate(graphgen.DefaultConfig(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Tours = 12
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	first := res.History[0].PheromoneConcentration
	last := res.History[len(res.History)-1].PheromoneConcentration
	if first <= 0 || first > 1 || last <= 0 || last > 1 {
		t.Fatalf("concentrations outside (0,1]: %g, %g", first, last)
	}
	if last <= first {
		t.Fatalf("pheromone concentration did not rise: %g -> %g", first, last)
	}
}

func TestLayerConvenience(t *testing.T) {
	g := graphgen.Path(3)
	l, err := Layer(context.Background(), g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

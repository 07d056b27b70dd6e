package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"antlayer/internal/dag"
	"antlayer/internal/layering"
)

// TourStats records what one tour achieved, for convergence analysis.
type TourStats struct {
	Tour          int     // 1-based tour number
	BestObjective float64 // objective of the tour's best ant
	MeanObjective float64 // mean objective over the colony
	BestHeight    int
	BestWidth     float64
	// PheromoneConcentration measures how focused the pheromone matrix is
	// after the tour's update: the mean over vertices of the largest
	// row share max_l τ[v][l] / Σ_l τ[v][l]. It starts at 1/L (uniform)
	// and approaches 1 as the colony converges on one layering — the
	// stagnation §IV-D warns about is visible as a fast rise.
	PheromoneConcentration float64
}

// Result is the outcome of a colony run.
type Result struct {
	// Layering is the best layering found, normalized (empty layers
	// removed, §VI note).
	Layering *layering.Layering
	// Objective is f = 1/(H+W) of the best walk, measured in the stretched
	// search space before normalization.
	Objective float64
	// Height and Width are the layering's height and width including
	// dummy vertices at the run's DummyWidth, after normalization.
	Height int
	Width  float64
	// BestTour is the 1-based tour that produced the best walk, or 0 when
	// no walk improved on the stretched LPL seed.
	BestTour int
	// History holds per-tour statistics.
	History []TourStats
	// State is the colony's final search state, present only when
	// Params.ExportState asked for it — the input of the next warm start.
	State *State
}

// Colony conducts the search process (paper §VI: the AntColony class). A
// Colony is single-use: construct with NewColony, then either call Run
// (or RunContext) once, or drive the run incrementally — StepContext in
// slices of tours, optionally DepositElite between slices (the island
// model's migration hook), Finalize once at the end. Run is exactly
// StepContext over all tours followed by Finalize, so the two styles
// produce bitwise-identical results.
type Colony struct {
	g   *dag.Graph
	p   Params
	L   int         // stretched layer count
	tau [][]float64 // pheromone matrix, tau[v][l-1]

	baseAssign []int     // layering inherited by the next tour
	baseWidths []float64 // its layer widths

	ants   []*ant      // reused across tours; allocated on the first tour
	powTau [][]float64 // scratch for the per-tour τ^α snapshot (α ≠ 1 only)
	memos  []*expMemo  // one exp memo per tour worker, handed to the ant it walks

	// Incremental run state, initialised lazily by ensureStarted so a
	// freshly constructed colony costs nothing until it steps.
	started       bool
	tour          int // next tour to run, 1-based
	stagnant      int // consecutive non-improving tours
	stopped       bool
	bestObjective float64
	bestAssign    []int
	bestTour      int
	history       []TourStats
}

// NewColony validates the parameters and runs the initialisation phase
// (Algorithm 3): LPL, stretch, pheromone matrix. The input must be acyclic.
func NewColony(g *dag.Graph, p Params) (*Colony, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxLayers := p.MaxLayers
	if maxLayers == 0 {
		maxLayers = g.N()
	}
	stretched, err := Stretch(g, maxLayers, p.Stretch)
	if err != nil {
		return nil, err
	}
	L := stretched.NumLayers()
	if L == 0 { // empty graph
		L = 1
	}
	c := &Colony{
		g:          g,
		p:          p,
		L:          L,
		baseAssign: stretched.Assignment(),
		baseWidths: layerWidths(g, stretched.Assignment(), L, p.DummyWidth),
	}
	c.tau = make([][]float64, g.N())
	for v := range c.tau {
		row := make([]float64, L)
		for i := range row {
			row[i] = p.Tau0
		}
		c.tau[v] = row
	}
	// Warm start (Params.Warm): overlay the carried pheromone rows and
	// elite onto the flat prior before any tour runs. A nil Warm leaves
	// the matrix exactly as initialised above — the cold path is
	// bit-neutral.
	c.applyWarm()
	return c, nil
}

// layerWidths computes from scratch the width of every layer 1..L including
// dummy contributions: the reference implementation Algorithm 5's
// incremental updates are tested against.
func layerWidths(g *dag.Graph, assign []int, L int, dummyWidth float64) []float64 {
	w := make([]float64, L)
	for v := 0; v < g.N(); v++ {
		w[assign[v]-1] += g.Width(v)
	}
	for _, e := range g.Edges() {
		for l := assign[e.V] + 1; l <= assign[e.U]-1; l++ {
			w[l-1] += dummyWidth
		}
	}
	return w
}

// layeringObjective returns f = 1/(H+W) of an assignment with the given
// layer widths, with the arithmetic of ant.scoreWalk: H counts the
// occupied layers and W is the widest occupied layer, clamped at 0.
func layeringObjective(assign []int, widths []float64) float64 {
	occupied := make([]bool, len(widths))
	h := 0
	for _, l := range assign {
		if !occupied[l-1] {
			occupied[l-1] = true
			h++
		}
	}
	w := 0.0
	for i, width := range widths {
		if occupied[i] && width > w {
			w = width
		}
	}
	return 1 / (float64(h) + w)
}

// Run executes the layering phase (Algorithm 4) and returns the best
// layering found across all tours. It is RunContext with a background
// context: the run cannot be cancelled.
func (c *Colony) Run() (*Result, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the layering phase (Algorithm 4) under ctx and
// returns the best layering found across all tours.
//
// Cancellation is checked at the top of every tour and before every ant
// walk inside a tour (the walk itself — one pass over the vertices — runs
// to completion), so a cancelled colony stops within one walk per worker.
// When ctx is cancelled or its deadline expires before the run completes,
// RunContext discards the partial tour and returns nil and an error
// wrapping ctx.Err(); use errors.Is(err, context.DeadlineExceeded) /
// context.Canceled to tell a timeout from a shutdown. Cancellation never
// perturbs determinism: a run that completes returns the same layering
// whether or not a (never-fired) cancel was armed, because the checks read
// the context without touching any ant's RNG.
func (c *Colony) RunContext(ctx context.Context) (*Result, error) {
	if _, err := c.StepContext(ctx, c.p.Tours); err != nil {
		return nil, err
	}
	return c.Finalize()
}

// ensureStarted scores the stretched LPL seed as the incumbent solution: a
// tour whose ants all explore uphill cannot make the final result worse
// than the layering the colony started from. BestTour stays 0 when no walk
// beats the seed.
func (c *Colony) ensureStarted() {
	if c.started {
		return
	}
	c.started = true
	c.tour = 1
	c.bestObjective = layeringObjective(c.baseAssign, c.baseWidths)
	c.bestAssign = append([]int(nil), c.baseAssign...)
}

// StepContext runs up to n further tours under ctx and reports whether the
// run is over — all Params.Tours executed, or the stagnation rule fired.
// Tour numbering continues across calls, so splitting a run into slices
// changes no ant's seed: StepContext(ctx, Tours) and Tours calls of
// StepContext(ctx, 1) walk the very same ants. Cancellation semantics are
// those of RunContext; a colony whose step was cancelled is dead (the
// interrupted tour was discarded, but the run cannot resume).
func (c *Colony) StepContext(ctx context.Context, n int) (done bool, err error) {
	if c.g.N() == 0 {
		c.stopped = true
		return true, nil
	}
	c.ensureStarted()
	for k := 0; k < n && !c.stopped; k++ {
		t := c.tour
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("core: colony run aborted before tour %d: %w", t, err)
		}
		ants := c.runTour(ctx, t)
		// A tour interrupted mid-flight holds a mix of walked and stale
		// ants; discard it rather than let it update the pheromone matrix.
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("core: colony run aborted during tour %d: %w", t, err)
		}

		// The tour's best ant: highest objective, ties to the lowest index
		// so the outcome does not depend on scheduling.
		bestIdx := 0
		meanObj := 0.0
		for i, a := range ants {
			meanObj += a.objective
			if a.objective > ants[bestIdx].objective {
				bestIdx = i
			}
		}
		best := ants[bestIdx]

		// Evaporation, then the best ant deposits on its assignments
		// (Algorithm 4, lines 16-17).
		c.evaporate()
		c.deposit(best)
		c.clampPheromone()

		c.history = append(c.history, TourStats{
			Tour:                   t,
			BestObjective:          best.objective,
			MeanObjective:          meanObj / float64(len(ants)),
			BestHeight:             best.height,
			BestWidth:              best.width,
			PheromoneConcentration: c.pheromoneConcentration(),
		})

		// The best ant's layering (and therefore its heuristic state)
		// seeds the next tour (line 18).
		c.baseAssign = append(c.baseAssign[:0], best.assign...)
		c.baseWidths = append(c.baseWidths[:0], best.widths...)

		c.tour++
		if best.objective > c.bestObjective {
			c.bestObjective = best.objective
			c.bestAssign = append(c.bestAssign[:0], best.assign...)
			c.bestTour = t
			c.stagnant = 0
		} else {
			c.stagnant++
			if c.p.StopAfterStagnantTours > 0 && c.stagnant >= c.p.StopAfterStagnantTours {
				c.stopped = true
			}
		}
		if c.tour > c.p.Tours {
			c.stopped = true
		}
	}
	return c.stopped, nil
}

// Finalize normalizes the best layering found so far into a Result. Call
// it once, after stepping is over; a colony that never stepped returns the
// stretched LPL seed.
func (c *Colony) Finalize() (*Result, error) {
	if c.g.N() == 0 {
		res := &Result{Layering: layering.FromAssignment(c.g, nil), Objective: 0}
		if c.p.ExportState {
			res.State = c.ExportState()
		}
		return res, nil
	}
	c.ensureStarted()
	// The layering gets its own copy: FromAssignment aliases the slice
	// and Normalize remaps it in place, which must not corrupt the
	// stretched-space assignment a later Best()/DepositElite reads.
	l := layering.FromAssignment(c.g, append([]int(nil), c.bestAssign...))
	l.SetNumLayers(c.L)
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("core: colony produced invalid layering: %w", err)
	}
	l.Normalize()
	res := &Result{
		Layering:  l,
		Objective: c.bestObjective,
		Height:    l.Height(),
		Width:     l.WidthIncludingDummies(c.p.DummyWidth),
		BestTour:  c.bestTour,
		History:   c.history,
	}
	if c.p.ExportState {
		res.State = c.ExportState()
	}
	return res, nil
}

// Best returns a copy of the best layer assignment found so far (in the
// stretched search space, 1-based layers) and its objective f = 1/(H+W).
// Before any tour has run it is the stretched LPL seed. The island model
// reads it at migration barriers; feeding it to another colony over the
// same graph and stretch is what DepositElite is for.
func (c *Colony) Best() (assign []int, objective float64) {
	if c.g.N() == 0 {
		return nil, 0
	}
	c.ensureStarted()
	return append([]int(nil), c.bestAssign...), c.bestObjective
}

// NumLayers returns the stretched layer count L of the colony's search
// space — the space Best assignments live in.
func (c *Colony) NumLayers() int { return c.L }

// ToursRun returns how many tours the colony has executed so far.
func (c *Colony) ToursRun() int { return len(c.history) }

// DepositElite adds pheromone along an externally supplied layering — the
// elite-migration hook of the island model. The deposit is Q·objective on
// every (vertex, layer) coupling followed by the MAX-MIN clamp, exactly
// like a tour-best deposit, so a migrated elite biases the colony towards
// the neighbour's solution without overwriting its own search state. The
// assignment must live in this colony's stretched search space (one
// 1-based layer per vertex); islands over the same graph and parameters
// share that space by construction.
func (c *Colony) DepositElite(assign []int, objective float64) error {
	if len(assign) != c.g.N() {
		return fmt.Errorf("core: elite deposit: assignment covers %d vertices, graph has %d", len(assign), c.g.N())
	}
	if objective <= 0 {
		return fmt.Errorf("core: elite deposit: objective must be > 0, got %g", objective)
	}
	for v, l := range assign {
		if l < 1 || l > c.L {
			return fmt.Errorf("core: elite deposit: vertex %d on layer %d outside [1,%d]", v, l, c.L)
		}
	}
	amount := c.p.Q * objective
	for v, l := range assign {
		c.tau[v][l-1] += amount
	}
	c.clampPheromone()
	return nil
}

// workers resolves Params.Workers to the pool size actually used for one
// tour: 0 means one goroutine per available CPU (GOMAXPROCS), anything
// else is taken literally, and the pool never exceeds the colony size.
func (c *Colony) workers() int {
	w := c.p.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.p.Ants {
		w = c.p.Ants
	}
	return w
}

// powTauSnapshot returns the τ^α matrix ants score against during one
// tour. With α = 1 (the default) it is the pheromone matrix itself
// (x^1 = x exactly); otherwise the colony-owned scratch matrix is
// refreshed, so math.Pow runs once per (vertex, layer) per tour instead of
// once per candidate evaluation.
func (c *Colony) powTauSnapshot() [][]float64 {
	if c.p.Alpha == 1 {
		return c.tau
	}
	if c.powTau == nil {
		c.powTau = make([][]float64, len(c.tau))
		for v := range c.powTau {
			c.powTau[v] = make([]float64, c.L)
		}
	}
	for v, row := range c.tau {
		dst := c.powTau[v]
		for i, tau := range row {
			dst[i] = math.Pow(tau, c.p.Alpha)
		}
	}
	return c.powTau
}

// runTour evaluates the whole colony against the current base layering,
// fanning the ants of tour t out over the worker pool. The ant objects are
// allocated once and reset for every tour, so a tour performs no heap
// allocation beyond the first.
//
// Tour construction is embarrassingly parallel: during a tour the
// pheromone matrix is an immutable snapshot (evaporation and the best
// ant's deposit happen in Run, strictly after the pool's barrier), the
// base layering is only read, and each ant owns its assignment copy, its
// scratch buffers and its RNG; each worker owns the exp memo it lends to
// the ants it walks. Each ant's seed is derived from the master
// seed and the ant's (tour, index) coordinates — see antSeed — so the
// layering constructed by ant i of tour t is a pure function of Params and
// the base layering, and the tour's outcome is bitwise-identical at any
// worker count and under any goroutine schedule.
// A cancelled ctx stops the tour early: the dispatch loop stops handing
// out ant indices and every worker re-checks the context before each walk,
// so at most one in-flight walk per worker completes after cancellation.
// RunContext discards the interrupted tour, so the skipped ants' stale
// state is never observed.
func (c *Colony) runTour(ctx context.Context, t int) []*ant {
	powTau := c.powTauSnapshot()
	if c.ants == nil {
		c.ants = make([]*ant, c.p.Ants)
	}
	ants := c.ants
	workers := c.workers()
	for len(c.memos) < workers {
		c.memos = append(c.memos, newExpMemo())
	}
	// walkAnt prepares ant i for tour t — allocating it on the first tour
	// (newAnt resets internally), resetting it afterwards — and walks it
	// with the calling worker's memo. Each index is handled by exactly one
	// worker, so lazy construction needs no synchronisation. A memo only
	// ever returns math.Exp's own result, so which worker's memo an ant
	// gets cannot change its walk.
	walkAnt := func(i int, memo *expMemo) {
		seed := antSeed(c.p.Seed, t, i)
		if ants[i] == nil {
			ants[i] = newAnt(c.g, &c.p, powTau, c.L, c.baseAssign, c.baseWidths, seed, memo)
		} else {
			ants[i].memo = memo
			ants[i].reset(c.baseAssign, c.baseWidths, powTau, seed)
		}
		ants[i].walk()
	}
	if workers <= 1 {
		for i := range ants {
			if ctx.Err() != nil {
				break
			}
			walkAnt(i, c.memos[0])
		}
		return ants
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(memo *expMemo) {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain the channel so the dispatcher never blocks
				}
				walkAnt(i, memo)
			}
		}(c.memos[w])
	}
	for i := range ants {
		if ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return ants
}

// evaporate applies τ ← (1-ρ)·τ to every element.
func (c *Colony) evaporate() {
	f := 1 - c.p.Rho
	for _, row := range c.tau {
		for i := range row {
			row[i] *= f
		}
	}
}

// deposit adds Q·f of pheromone to every (vertex, layer) coupling of the
// best ant's solution.
func (c *Colony) deposit(best *ant) {
	amount := c.p.Q * best.objective
	for v, l := range best.assign {
		c.tau[v][l-1] += amount
	}
}

// pheromoneConcentration is the mean over vertices of the dominant layer's
// pheromone share; see TourStats.PheromoneConcentration.
func (c *Colony) pheromoneConcentration() float64 {
	if len(c.tau) == 0 {
		return 0
	}
	total := 0.0
	for _, row := range c.tau {
		sum, max := 0.0, 0.0
		for _, tau := range row {
			sum += tau
			if tau > max {
				max = tau
			}
		}
		if sum > 0 {
			total += max / sum
		}
	}
	return total / float64(len(c.tau))
}

// clampPheromone applies the MAX-MIN Ant System bounds when configured.
func (c *Colony) clampPheromone() {
	if c.p.TauMin == 0 && c.p.TauMax == 0 {
		return
	}
	for _, row := range c.tau {
		for i, tau := range row {
			if c.p.TauMin > 0 && tau < c.p.TauMin {
				row[i] = c.p.TauMin
			}
			if c.p.TauMax > 0 && tau > c.p.TauMax {
				row[i] = c.p.TauMax
			}
		}
	}
}

// Layer is the package-level convenience: build a colony with the given
// parameters and run it under ctx, returning only the layering. See
// RunContext for cancellation semantics.
func Layer(ctx context.Context, g *dag.Graph, p Params) (*layering.Layering, error) {
	res, err := Run(ctx, g, p)
	if err != nil {
		return nil, err
	}
	return res.Layering, nil
}

// Run builds a colony and runs it under ctx. See RunContext for
// cancellation semantics.
func Run(ctx context.Context, g *dag.Graph, p Params) (*Result, error) {
	c, err := NewColony(g, p)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}

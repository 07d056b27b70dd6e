package core

import (
	"math"
	"math/rand"

	"antlayer/internal/dag"
)

// ant is a single computational agent. Each ant owns a copy of the base
// layer assignment and of the layer widths (paper §IV-E: an ant memorises
// its partial solution and keeps its own heuristic state) and mutates them
// during its walk. The pheromone matrix is shared read-only during a tour.
//
// The walk is the hot path of the whole system (Ants×Tours walks per run,
// one span evaluation per vertex per walk), so the ant is built to do no
// heap allocation after construction: the colony resets and reuses the
// same ant objects across tours, every evaluation works in preallocated
// scratch buffers, and the prefix/suffix width maxima that evalRange needs
// are maintained incrementally by move instead of being rebuilt from
// scratch for every decision. See DESIGN.md (hot path).
type ant struct {
	g *dag.Graph
	p *Params
	// powTau[v][l-1] is τ[v][l]^α, snapshotted once per tour by the colony
	// (the pheromone matrix is immutable while a tour's ants walk). With
	// α = 1 it aliases the colony's τ matrix itself. Shared, read-only.
	powTau [][]float64
	L      int       // number of layers in the stretched search space
	assign []int     // current layer per vertex (1-based)
	widths []float64 // widths[l-1] = width of layer l incl. dummies
	occ    []int     // occ[l-1] = number of real vertices on layer l
	h      int       // number of occupied layers
	// rng draws from a lazySource, so reseeding it for every walk is O(1).
	rng *rand.Rand
	// memo caches math.Exp for the η = exp(-Δ) heuristic. It belongs to
	// the colony worker that walks the ant and is never shared between
	// goroutines.
	memo *expMemo

	// Prefix/suffix maxima over occupied layer widths (1-based layers;
	// preMax[0] = sufMax[L+1] = -inf sentinel). Maintained incrementally:
	// rebuilt once per reset, then repaired by move over just the layer
	// range a move touches.
	preMax []float64 // preMax[i] = max occupied width among layers 1..i
	sufMax []float64 // sufMax[i] = max occupied width among layers i..L

	// Scratch buffers reused across vertices and walks.
	deltas   []float64
	affected []float64
	scores   []float64
	perm     []int

	// Beta fast path: when β is a small non-negative integer, η^β is
	// computed by direct multiplication instead of math.Pow.
	betaInt   int
	betaIsInt bool

	objective float64 // f = 1/(H+W) after the walk
	height    int
	width     float64
}

// newAnt allocates an ant over the shared search space and prepares it for
// its first walk. powTau must be τ^α (the raw matrix is fine when α = 1).
// baseAssign and baseWidths are copied; memo is kept by reference.
func newAnt(g *dag.Graph, p *Params, powTau [][]float64, L int, baseAssign []int, baseWidths []float64, seed int64, memo *expMemo) *ant {
	n := g.N()
	a := &ant{
		g:        g,
		p:        p,
		L:        L,
		assign:   make([]int, n),
		widths:   make([]float64, L),
		occ:      make([]int, L),
		rng:      rand.New(newLazySource(seed)),
		memo:     memo,
		preMax:   make([]float64, L+2),
		sufMax:   make([]float64, L+2),
		deltas:   make([]float64, L),
		affected: make([]float64, L),
		scores:   make([]float64, L),
		perm:     make([]int, n),
	}
	if bi := int(p.Beta); float64(bi) == p.Beta && bi >= 0 && bi <= 5 {
		a.betaInt, a.betaIsInt = bi, true
	}
	a.reset(baseAssign, baseWidths, powTau, seed)
	return a
}

// reset re-points the ant at a new base layering, pheromone snapshot and
// RNG seed without allocating, so the colony can reuse one set of ants for
// every tour. newAnt calls it for the first tour.
func (a *ant) reset(baseAssign []int, baseWidths []float64, powTau [][]float64, seed int64) {
	a.powTau = powTau
	copy(a.assign, baseAssign)
	copy(a.widths, baseWidths)
	for i := range a.occ {
		a.occ[i] = 0
	}
	a.h = 0
	for _, l := range baseAssign {
		if a.occ[l-1] == 0 {
			a.h++
		}
		a.occ[l-1]++
	}
	a.rng.Seed(seed)
	a.rebuildMaxima()
}

// rebuildMaxima recomputes the prefix/suffix occupied-width maxima from
// scratch: once per reset, O(L).
func (a *ant) rebuildMaxima() {
	negInf := math.Inf(-1)
	a.preMax[0] = negInf
	for l := 1; l <= a.L; l++ {
		m := a.preMax[l-1]
		if a.occ[l-1] > 0 && a.widths[l-1] > m {
			m = a.widths[l-1]
		}
		a.preMax[l] = m
	}
	a.sufMax[a.L+1] = negInf
	for l := a.L; l >= 1; l-- {
		m := a.sufMax[l+1]
		if a.occ[l-1] > 0 && a.widths[l-1] > m {
			m = a.widths[l-1]
		}
		a.sufMax[l] = m
	}
}

// repairMaxima restores preMax/sufMax after widths/occ changed only on the
// layers [lo, hi]. The prefix maxima are recomputed forward from lo and the
// suffix maxima backward from hi; past the dirty range the scan stops as
// soon as a recomputed value matches the stored one, because every later
// entry depends only on that value and on unchanged widths. Cost: O(hi-lo)
// plus the convergence tail, instead of O(L) per decision.
func (a *ant) repairMaxima(lo, hi int) {
	for l := lo; l <= a.L; l++ {
		m := a.preMax[l-1]
		if a.occ[l-1] > 0 && a.widths[l-1] > m {
			m = a.widths[l-1]
		}
		if l > hi && m == a.preMax[l] {
			break
		}
		a.preMax[l] = m
	}
	for l := hi; l >= 1; l-- {
		m := a.sufMax[l+1]
		if a.occ[l-1] > 0 && a.widths[l-1] > m {
			m = a.widths[l-1]
		}
		if l < lo && m == a.sufMax[l] {
			break
		}
		a.sufMax[l] = m
	}
}

// walk performs one solution construction (paper §IV-A): the ant visits
// every vertex in random order and reassigns it to the best layer of its
// span according to the random proportional rule. It finishes by computing
// the objective value f = 1/(H+W).
//
// The visiting order is an in-place Fisher–Yates over the reused perm
// buffer, drawing exactly the Intn sequence rand.Perm draws so walks are
// bitwise-identical to the allocating formulation.
func (a *ant) walk() {
	n := a.g.N()
	perm := a.perm[:n]
	// The i = 0 iteration swaps perm[0] with itself but still draws from
	// the RNG — rand.Perm does the same, and skipping the draw would shift
	// the stream and change every walk.
	for i := 0; i < n; i++ {
		j := a.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for _, v := range perm {
		lo, hi := a.span(v)
		best := a.chooseLayer(v, lo, hi)
		a.move(v, best)
	}
	a.scoreWalk()
}

// span returns the feasible neighbourhood of v: the layers between the
// topmost successor+1 and the bottommost predecessor-1 under the ant's
// current assignment, clamped to [1, L]. For a valid assignment the span
// always contains the current layer of v.
func (a *ant) span(v int) (lo, hi int) {
	lo, hi = 1, a.L
	for _, w := range a.g.Succ(v) {
		if a.assign[w]+1 > lo {
			lo = a.assign[w] + 1
		}
	}
	for _, u := range a.g.Pred(v) {
		if a.assign[u]-1 < hi {
			hi = a.assign[u] - 1
		}
	}
	return lo, hi
}

// chooseLayer applies the random proportional rule over the span [lo, hi]:
// the probability of layer l is proportional to τ[v][l]^α · η[v][l]^β.
// With SelectArgMax it returns the most probable layer (Algorithm 4,
// line 6); with SelectRoulette it samples. Both select over the one score
// buffer scoreSpan fills.
func (a *ant) chooseLayer(v, lo, hi int) int {
	if lo >= hi {
		return lo
	}
	scores := a.scoreSpan(v, lo, hi)
	start := a.assign[v]
	if start < lo {
		start = lo
	}
	if start > hi {
		start = hi
	}
	start -= lo
	switch a.p.Selection {
	case SelectRoulette:
		return lo + a.roulette(scores, start)
	case SelectArgMax:
		return lo + argmax(scores, start)
	default: // SelectPseudoRandom
		if a.rng.Float64() < a.p.Q0 {
			return lo + argmax(scores, start)
		}
		return lo + a.roulette(scores, start)
	}
}

// scoreSpan writes the unnormalised random-proportional-rule numerator
// τ[v][l]^α · η[v][l]^β for every l in [lo, hi] into the scores scratch
// buffer, indexed l-lo, with τ^α read from the per-tour snapshot. The
// returned slice is valid until the next scoreSpan call.
//
// The heuristic information η is dynamic (§IV-D): it is recomputed from the
// ant's current layer widths for every decision. HeuristicLayerWidth is the
// literal formula of §IV-D: η = 1/W(l) with the layer's current width
// (regularised by one dummy width so empty layers have finite
// desirability). HeuristicObjective (the default) makes η the exact
// desirability of the move under the paper's objective: η = exp(-Δ(v,l))
// with Δ from evalRange. Staying put always has Δ = 0, so a
// pheromone-neutral ant never worsens its solution; pheromone accumulated
// over tours can still push it across small uphill steps.
//
// A candidate whose move would push a widened occupied layer beyond the
// §IV-C width bound scores 0, and so does η = 0, even when β = 0. The
// current layer stays admissible so feasibility is never lost.
func (a *ant) scoreSpan(v, lo, hi int) []float64 {
	var deltas, affected []float64
	if a.p.Heuristic != HeuristicLayerWidth || a.p.WidthBound > 0 {
		deltas, affected = a.evalRange(v, lo, hi)
	}
	scores := a.scores[:hi-lo+1]
	tau := a.powTau[v][lo-1 : hi]
	cur := a.assign[v]
	bound, layerWidth := a.p.WidthBound, a.p.Heuristic == HeuristicLayerWidth
	for i := range scores {
		var eta float64 // stays 0 where the width bound rejects the move
		switch {
		case bound > 0 && lo+i != cur && affected[i] > bound:
		case layerWidth:
			eta = 1 / (a.widths[lo+i-1] + a.p.DummyWidth)
		default:
			eta = a.memo.exp(-deltas[i])
		}
		scores[i] = 0
		if eta != 0 {
			scores[i] = tau[i] * a.powEta(eta)
		}
	}
	return scores
}

// evalRange computes, for every candidate layer l in [lo, hi]:
//
//   - deltas[l-lo]: Δ(v,l) = (H'+W') - (H+W), where primes denote the
//     state after moving v to l, measured after the final empty-layer
//     removal (§VI note): H counts layers holding real vertices and W is
//     the maximum width over those layers including the dummy vertices
//     crossing them (Algorithm 5 bookkeeping). A small tie-break term
//     charges 0.05·wd per net dummy vertex created so plateau moves do
//     not silently inflate the dummy count. §IV-E (items 3-4) requires
//     exactly this information to be maintained: the widths of all
//     affected layers and the dummy vertices an assignment would cause.
//   - affected[l-lo]: the maximum post-move width over the layers the move
//     *widens* (the target, plus source/interior layers whose width grows),
//     used by the §IV-C width bound. Layers the move narrows are excluded
//     so that leaving an over-full layer remains admissible.
//
// The evaluation is O(hi-lo+1) per call: the prefix/suffix maxima over
// occupied layer widths maintained by move give the maximum outside the
// affected range in O(1), and the maxima over the affected interior are
// extended incrementally as the candidate moves away from the current
// layer. The interior modifier is constant per direction
// (±(outdeg-indeg)·wd, Algorithm 5), which is what makes the incremental
// extension valid.
//
// The returned slices are the ant's scratch buffers: valid until the next
// evalRange call.
func (a *ant) evalRange(v, lo, hi int) (deltas, affected []float64) {
	cur := a.assign[v]
	wd := a.p.DummyWidth
	w := a.g.Width(v)
	out := float64(a.g.OutDegree(v))
	in := float64(a.g.InDegree(v))
	negInf := math.Inf(-1)

	hw := float64(a.h) + a.curMaxWidth()
	deltas = a.deltas[:hi-lo+1]
	affected = a.affected[:hi-lo+1]

	// Quantities constant over the whole span. srcShrinks: the source
	// layer stays occupied after the move (only then do its post-move
	// width and the candidate count of occupied layers involve it).
	curWidth := a.widths[cur-1]
	srcShrinks := a.occ[cur-1] > 1
	hBase := a.h
	if !srcShrinks {
		hBase--
	}

	if cur >= lo && cur <= hi {
		deltas[cur-lo], affected[cur-lo] = 0, curWidth
	}

	// One candidate loop per direction. Moving up (Algorithm 5), the
	// layers [cur, l-1] gain out·wd and [cur+1, l] lose in·wd; moving down
	// they gain in·wd and lose out·wd. The source adjustment, the interior
	// modifier and the width maximum on the near side of the touched range
	// are constant per direction; the far side's maximum is one read of
	// the maxima array ahead of the candidate, and the interior maximum
	// extends one layer at a time as the candidate moves away from cur,
	// which is what makes the evaluation O(1) per candidate. No NaNs can
	// occur here (widths are finite), so plain comparisons replace
	// math.Max and the builtin max. Loop-invariant products and slice
	// headers are read into locals once; the products are the same
	// float operations, so the bits do not change.
	widths, occ := a.widths, a.occ
	charge := 0.05 * wd
	for _, dir := range [2]int{1, -1} {
		gain, lose, end := out, in, hi
		near, far := a.preMax[cur-1], a.sufMax
		if dir < 0 {
			gain, lose, end = in, out, lo
			near, far = a.sufMax[cur+1], a.preMax
		}
		if (end-cur)*dir <= 0 {
			continue
		}
		net := gain - lose
		curAfter := curWidth - w + gain*wd
		interiorMod := net * wd
		loseWd := lose * wd
		curWidens := srcShrinks && curAfter > curWidth
		interior := negInf
		for l, k, stop := cur+dir, 1, end+dir; l != stop; l, k = l+dir, k+1 {
			lAfter := widths[l-1] + w - loseWd
			// Maximum over the occupied layers the move makes wider (for
			// the width bound): always the target; the source and interior
			// layers only when the dummy adjustments actually widen them.
			widened := lAfter
			if curWidens && curAfter > widened {
				widened = curAfter
			}
			// New maximum over all occupied layers the move touches.
			touched := lAfter
			if srcShrinks && curAfter > touched {
				touched = curAfter
			}
			if interior != negInf {
				ext := interior + interiorMod
				if interiorMod > 0 && ext > widened {
					widened = ext
				}
				if ext > touched {
					touched = ext
				}
			}
			// New maximum over all occupied layers (for the delta).
			wMax := touched
			if near > wMax {
				wMax = near
			}
			if f := far[l+dir]; f > wMax {
				wMax = f
			}
			hNew := hBase
			if occ[l-1] == 0 {
				hNew++
			}
			// Net dummy vertices the move creates (negative = removes); a
			// small charge keeps plateau moves from inflating the DVC.
			created := float64(k) * net
			deltas[l-lo] = (float64(hNew) + wMax) - hw + charge*created
			affected[l-lo] = widened
			// Layer l becomes interior for the next candidate.
			if occ[l-1] > 0 && widths[l-1] > interior {
				interior = widths[l-1]
			}
		}
	}
	return deltas, affected
}

// curMaxWidth returns the current maximum width over occupied layers, read
// off the maintained prefix maxima in O(1).
func (a *ant) curMaxWidth() float64 {
	if m := a.preMax[a.L]; m > 0 {
		return m
	}
	return 0
}

// expMemoBits sizes an expMemo at 2¹⁰ slots. A walk sees a few hundred
// distinct Δ values; 256 slots missed 9–23% of lookups on the paper's
// corpus, 1024 miss about 1%.
const expMemoBits = 10

// expMemoEmpty marks an unused slot: a NaN bit pattern, whose slot value
// is math.Exp of that very NaN, so even a lookup of the sentinel itself
// returns math.Exp's answer.
const expMemoEmpty = 0x7ff8_0000_dead_beef

// expMemo is a direct-mapped cache of math.Exp keyed by the argument's bit
// pattern. It only ever returns a value math.Exp computed for the same
// bits, so memoised and direct evaluation agree exactly.
type expMemo [1 << expMemoBits]struct {
	key uint64
	val float64
}

func newExpMemo() *expMemo {
	m := new(expMemo)
	empty := math.Exp(math.Float64frombits(expMemoEmpty))
	for i := range m {
		m[i].key, m[i].val = expMemoEmpty, empty
	}
	return m
}

// exp returns math.Exp(x).
func (m *expMemo) exp(x float64) float64 {
	b := math.Float64bits(x)
	// Fibonacci hashing: the top bits of b·2⁶⁴/φ mix every bit of b.
	e := &m[b*0x9e3779b97f4a7c15>>(64-expMemoBits)]
	if e.key != b {
		e.key, e.val = b, math.Exp(x)
	}
	return e.val
}

// argmax returns the index of the largest score, resolving ties towards
// the shortest move (and in particular towards staying put) by scanning in
// order of increasing distance from start, the current layer's index.
func argmax(scores []float64, start int) int {
	best, bestScore := start, scores[start]
	for d := 1; start-d >= 0 || start+d < len(scores); d++ {
		if i := start - d; i >= 0 && scores[i] > bestScore {
			best, bestScore = i, scores[i]
		}
		if i := start + d; i < len(scores) && scores[i] > bestScore {
			best, bestScore = i, scores[i]
		}
	}
	return best
}

// roulette samples an index proportionally to the scores. When the score
// total overflows to +Inf while every individual score is finite (one huge
// τ^α·η^β is enough), the scores are rescaled in place by their maximum and
// resummed, so roulette keeps sampling instead of silently degrading to
// argmax for the whole span. Only genuinely degenerate totals — zero, NaN,
// or an individually infinite score — fall back to argmax over the same
// buffer. A rescaled total lies in [1, len(scores)], so the fallback only
// ever reads unscaled scores.
func (a *ant) roulette(scores []float64, start int) int {
	total := 0.0
	for _, s := range scores {
		total += s
	}
	if math.IsInf(total, 1) {
		max := 0.0
		for _, s := range scores {
			if s > max {
				max = s
			}
		}
		if !math.IsInf(max, 1) {
			total = 0
			for i := range scores {
				scores[i] /= max
				total += scores[i]
			}
		}
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return argmax(scores, start)
	}
	r := a.rng.Float64() * total
	acc := 0.0
	for i, s := range scores {
		acc += s
		if r < acc {
			return i
		}
	}
	return len(scores) - 1
}

// powEta computes η^β. For small integer β and η comfortably inside the
// normal range it multiplies directly — bit-identical to math.Pow, whose
// integer-exponent path performs the same squaring chain on the separated
// mantissa. Out-of-range η (where direct multiplication could overflow,
// or double-round near the subnormal boundary where math.Pow's deferred
// Ldexp rounds once) falls back to math.Pow.
func (a *ant) powEta(eta float64) float64 {
	if a.betaIsInt && eta > 1e-60 && eta < 1e60 {
		switch a.betaInt {
		case 0:
			return 1
		case 1:
			return eta
		case 2:
			return eta * eta
		case 3:
			return eta * eta * eta
		case 4:
			e2 := eta * eta
			return e2 * e2
		case 5:
			e2 := eta * eta
			return eta * (e2 * e2)
		}
	}
	return math.Pow(eta, a.p.Beta)
}

// move reassigns v from its current layer to newLayer, updating the layer
// widths incrementally per Algorithm 5 of the paper and repairing the
// prefix/suffix width maxima over the touched range.
//
// Moving v up (newLayer > cur) makes v's outgoing edges additionally cross
// the layers [cur, newLayer-1] (one dummy each) and removes the dummy of
// each incoming edge from the layers [cur+1, newLayer]; moving down is
// symmetric.
func (a *ant) move(v, newLayer int) {
	cur := a.assign[v]
	if newLayer == cur {
		return
	}
	w := a.g.Width(v)
	wd := a.p.DummyWidth
	out := float64(a.g.OutDegree(v))
	in := float64(a.g.InDegree(v))

	a.widths[cur-1] -= w
	a.widths[newLayer-1] += w
	a.occ[cur-1]--
	if a.occ[cur-1] == 0 {
		a.h--
	}
	if a.occ[newLayer-1] == 0 {
		a.h++
	}
	a.occ[newLayer-1]++

	if newLayer > cur {
		for l := cur; l <= newLayer-1; l++ {
			a.widths[l-1] += out * wd
		}
		for l := cur + 1; l <= newLayer; l++ {
			a.widths[l-1] -= in * wd
		}
	} else {
		for l := newLayer + 1; l <= cur; l++ {
			a.widths[l-1] += in * wd
		}
		for l := newLayer; l <= cur-1; l++ {
			a.widths[l-1] -= out * wd
		}
	}
	a.assign[v] = newLayer
	if newLayer > cur {
		a.repairMaxima(cur, newLayer)
	} else {
		a.repairMaxima(newLayer, cur)
	}
}

// scoreWalk computes H, W and the objective f = 1/(H+W) (Algorithm 4,
// line 13) as they will be *after* the final empty-layer removal (§VI
// note): only layers holding real vertices count, because layers crossed
// exclusively by dummies disappear when the layering is normalized, while
// an edge crossing an occupied layer keeps crossing it (normalization is
// an order-preserving renumbering). Evaluating the stretched solution
// directly would make H saturate at the stretched layer count and remove
// all pressure towards compact layerings.
func (a *ant) scoreWalk() {
	a.height = a.h
	a.width = a.curMaxWidth()
	a.objective = 1 / (float64(a.height) + a.width)
}

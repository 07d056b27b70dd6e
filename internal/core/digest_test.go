package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"antlayer/internal/graphgen"
)

// TestCorpusDigestGolden pins the colony's output bytes over a whole corpus
// sample (n = 10…100, ten graphs per group) rather than a single graph: a
// SHA-256 over every Run's normalized assignment, objective, height, width,
// best tour and per-tour history. The first four digests were recorded
// before the lazily seeded RNG source and the exp memo entered the walk, so
// they prove those optimisations change no output bit. The rows with a
// mode suffix pin the other branches of the layer decision (a binding
// width bound under each selection rule, the layer-width heuristic under
// argmax and roulette, α ≠ 1 with a non-integer β, and the ends stretch
// with MAX-MIN pheromone clamps); they were recorded before the decision
// kernel became one candidate loop over one score buffer. Each digest must
// come out the same at Workers 1 and 2.
func TestCorpusDigestGolden(t *testing.T) {
	groups, err := graphgen.CorpusSample(1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		heur   HeuristicMode
		sel    SelectionMode
		mode   string
		mod    func(*Params)
		digest string
	}{
		{HeuristicObjective, SelectPseudoRandom, "", nil,
			"78e24926ceca9c3ce23e8c644557d45dab0170df6fbe2763c36036c05cec97d6"},
		{HeuristicObjective, SelectRoulette, "", nil,
			"ed2eb04c4869183e6e69a18a4e69fd0662fecbfe0890e7122426a389aa812eef"},
		{HeuristicObjective, SelectArgMax, "", nil,
			"892fef49823efb70faec0e921799ad0c9b9c0989e0cbed97158b1f837ee45179"},
		{HeuristicLayerWidth, SelectPseudoRandom, "", nil,
			"0f4f86da9381c62364556f7692973532559fcae2253415f81adfb09194fc8ed1"},
		{HeuristicObjective, SelectPseudoRandom, "width-bound", widthBound,
			"4e1729a9958e916f179f9bc4ff25258924c4d2b177c6eacd9a0b3e774b42d0a7"},
		{HeuristicObjective, SelectRoulette, "width-bound", widthBound,
			"43b26f65cc40a527e33fd8e199f3925b58257e781a1a8aaa1df832f4bb77cf43"},
		{HeuristicLayerWidth, SelectArgMax, "width-bound", widthBound,
			"27975401805cf5f63a0bf69156c704f21d93dd770927f29f9f10ea886accb258"},
		{HeuristicLayerWidth, SelectRoulette, "", nil,
			"8bdb4be7dc16b16db2eb2f379dffaa162c2d024ebe972580bbafbdd4b941f921"},
		{HeuristicObjective, SelectPseudoRandom, "alpha2-beta2.5", func(p *Params) { p.Alpha, p.Beta = 2, 2.5 },
			"3b8d7ee38efc4f15ddc72290b9c0a92ac9fe81ec9bc3cfe5d602a71f3a43c308"},
		{HeuristicObjective, SelectPseudoRandom, "ends-tau-clamp", func(p *Params) {
			p.Stretch, p.TauMin, p.TauMax = StretchEnds, 0.2, 3
		}, "16e54bd95dfc61d5728fe195f397b32ce88337e1bafa65980f8c7772db4a7225"},
	}
	for _, gc := range golden {
		name := fmt.Sprintf("%v/%v", gc.heur, gc.sel)
		if gc.mode != "" {
			name += "/" + gc.mode
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 2} {
				p := DefaultParams()
				p.Heuristic = gc.heur
				p.Selection = gc.sel
				if gc.mod != nil {
					gc.mod(&p)
				}
				p.Workers = workers
				if got := corpusDigest(t, groups, p); got != gc.digest {
					t.Errorf("Workers=%d: digest %s, golden %s", workers, got, gc.digest)
				}
			}
		})
	}
}

// widthBound sets a bound tight enough to bind on the corpus: each
// width-bound row's digest differs from the same mode without the bound.
func widthBound(p *Params) { p.WidthBound = 6 }

// corpusDigest runs the colony over every graph of the corpus and hashes
// the results in corpus order.
func corpusDigest(t *testing.T, groups []graphgen.Group, p Params) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	u64 := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	f64 := func(x float64) { u64(math.Float64bits(x)) }
	for _, grp := range groups {
		for _, g := range grp.Graphs {
			res, err := Run(context.Background(), g, p)
			if err != nil {
				t.Fatal(err)
			}
			buf = buf[:0]
			u64(uint64(g.N()))
			for v := 0; v < g.N(); v++ {
				u64(uint64(res.Layering.Layer(v)))
			}
			f64(res.Objective)
			u64(uint64(res.Height))
			f64(res.Width)
			u64(uint64(res.BestTour))
			u64(uint64(len(res.History)))
			for _, s := range res.History {
				u64(uint64(s.Tour))
				f64(s.BestObjective)
				f64(s.MeanObjective)
				u64(uint64(s.BestHeight))
				f64(s.BestWidth)
				f64(s.PheromoneConcentration)
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

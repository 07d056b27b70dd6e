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
// best tour and per-tour history. The digests were recorded before the
// lazily seeded RNG source and the exp memo entered the walk, so they prove
// those optimisations change no output bit. Each digest must come out the
// same at Workers 1 and 2.
func TestCorpusDigestGolden(t *testing.T) {
	groups, err := graphgen.CorpusSample(1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		heur   HeuristicMode
		sel    SelectionMode
		digest string
	}{
		{HeuristicObjective, SelectPseudoRandom,
			"78e24926ceca9c3ce23e8c644557d45dab0170df6fbe2763c36036c05cec97d6"},
		{HeuristicObjective, SelectRoulette,
			"ed2eb04c4869183e6e69a18a4e69fd0662fecbfe0890e7122426a389aa812eef"},
		{HeuristicObjective, SelectArgMax,
			"892fef49823efb70faec0e921799ad0c9b9c0989e0cbed97158b1f837ee45179"},
		{HeuristicLayerWidth, SelectPseudoRandom,
			"0f4f86da9381c62364556f7692973532559fcae2253415f81adfb09194fc8ed1"},
	}
	for _, gc := range golden {
		t.Run(fmt.Sprintf("%v/%v", gc.heur, gc.sel), func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 2} {
				p := DefaultParams()
				p.Heuristic = gc.heur
				p.Selection = gc.sel
				p.Workers = workers
				if got := corpusDigest(t, groups, p); got != gc.digest {
					t.Errorf("Workers=%d: digest %s, golden %s", workers, got, gc.digest)
				}
			}
		})
	}
}

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

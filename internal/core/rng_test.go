package core

import (
	"math"
	"math/rand"
	"testing"
)

// rngSeeds are the seeds the differential tests compare on: zero (which
// math/rand replaces by 89482311) and that replacement itself, ±1, the
// modulus 2³¹−1 and 2³¹ around its wrap, the int64 extremes, and a few
// arbitrary values.
var rngSeeds = []int64{0, 1, -1, 89482311, int32max, -int32max, 1 << 31, math.MaxInt64, math.MinInt64,
	7, 424242, -987654321, 0x5deece66d, 1 << 40}

// drawBoth performs draw kind op on both generators and reports a
// mismatch. Kind 0 is Int63, 1 is Float64, 2 is Uint64 (the full 64 bits
// through Source64) and 3 is Intn over a bound derived from i; Intn bounds
// that are powers of two, small and large all occur.
func drawBoth(t *testing.T, want, got *rand.Rand, op, i int) {
	t.Helper()
	switch op % 4 {
	case 0:
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("draw %d Int63: got %d, want %d", i, g, w)
		}
	case 1:
		if w, g := want.Float64(), got.Float64(); math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("draw %d Float64: got %v, want %v", i, g, w)
		}
	case 2:
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("draw %d Uint64: got %#x, want %#x", i, g, w)
		}
	default:
		n := 1 + (i*7919)%(1<<(i%31))
		if w, g := want.Intn(n), got.Intn(n); w != g {
			t.Fatalf("draw %d Intn(%d): got %d, want %d", i, n, g, w)
		}
	}
}

// TestLazySourceMatchesMathRand compares the lazy source with math/rand's
// own over mixed draws that cross the 273-, 334- and 607-draw boundaries
// of the lazy materialisation and run well past them, then reseeds the
// same instance mid-stream and compares again.
func TestLazySourceMatchesMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seeds := append([]int64(nil), rngSeeds...)
	for i := 0; i < 8; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newLazySource(seed))
		for i := 0; i < 3500; i++ {
			drawBoth(t, want, got, i, i)
		}
		// Reseed both mid-stream at each boundary: the lazy source must
		// forget everything it materialised.
		for _, stop := range []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608} {
			reseed := seed ^ int64(stop)
			want.Seed(reseed)
			got.Seed(reseed)
			for i := 0; i < stop; i++ {
				drawBoth(t, want, got, i/5, i)
			}
		}
	}
}

// TestMulmod31 checks the division-free reduction against % on the
// edges of its domain [0, 2³¹−1) and on random pairs.
func TestMulmod31(t *testing.T) {
	pairs := [][2]uint64{{0, 5}, {1, int32max - 1}, {int32max - 1, int32max - 1}, {1 << 30, 2}, {rngSeedMul, 89482311}}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		pairs = append(pairs, [2]uint64{uint64(rng.Int63n(int32max)), uint64(rng.Int63n(int32max))})
	}
	for _, c := range pairs {
		if got, want := mulmod31(c[0], c[1]), c[0]*c[1]%int32max; got != want {
			t.Fatalf("mulmod31(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

// FuzzRNGStream compares the lazy source with math/rand's for an arbitrary
// seed and an arbitrary draw mix: each byte of ops, read as op%5 and op/5,
// either reseeds both generators (kind 4, to seed plus the byte's index)
// or makes up to 52 draws of one kind, so short inputs already reach past
// 607 draws.
func FuzzRNGStream(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3})
	f.Add(int64(-1), []byte{250, 251, 252, 253, 4, 250})
	f.Add(int64(math.MinInt64), []byte{253, 253, 253, 253, 253, 253, 253})
	f.Add(int64(int32max), []byte{60, 4, 61, 62, 63})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newLazySource(seed))
		i := 0
		for j, op := range ops {
			if op%5 == 4 {
				want.Seed(seed + int64(j))
				got.Seed(seed + int64(j))
				continue
			}
			for k := 0; k <= int(op/5); k++ {
				drawBoth(t, want, got, int(op%5), i)
				i++
			}
		}
	})
}

package core

import "math/rand"

// A lazily seeded math/rand source. Every ant walk reseeds its generator
// (per-(seed, tour, ant) determinism, see antSeed), and math/rand's Seed
// eagerly fills a 607-word register with 1,841 steps of a division-based
// recurrence, which costs more than a short walk itself. lazySource yields
// the very same stream but seeds in O(1) and materialises each register
// word the first time a draw reads it. See DESIGN.md (hot path).

const (
	rngLen   = 607       // register length of math/rand's generator
	rngTap   = 273       // its lag
	rngMask  = 1<<63 - 1 // Int63 mask
	int32max = 1<<31 - 1 // the seeding modulus, a Mersenne prime

	// math/rand seeds with the Lehmer recurrence x ← 48271·x mod (2³¹−1)
	// (Park–Miller–Stockmeyer), discards its first 20 values, then spends
	// three per register word.
	rngSeedMul  = 48271
	rngSeedSkip = 20
)

// rngPow[k] = 48271ᵏ mod (2³¹−1), so the k-th value of the seeding
// recurrence from x₀ is mulmod31(rngPow[k], x₀): no state walk needed.
var rngPow = func() (t [rngSeedSkip + 3*rngLen + 1]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = mulmod31(t[k-1], rngSeedMul)
	}
	return t
}()

// mulmod31 returns a·b mod (2³¹−1) for a, b < 2³¹−1 without a division:
// 2³¹ ≡ 1 (mod 2³¹−1), so the high half of the product folds onto the low
// half. For such a and b the product is at most (2³¹−2)², so the fold
// stays below 2·(2³¹−1) and one conditional subtraction reduces it.
func mulmod31(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// lazySource is a rand.Source64 whose stream is bit-identical to that of
// rand.NewSource(seed) for every seed: math/rand's additive lagged
// Fibonacci generator over the same register, with an O(1) Seed.
//
// math/rand's Seed leaves word i of the register as
//
//	(x₃ᵢ₊₂₁<<40 ^ x₃ᵢ₊₂₂<<20 ^ x₃ᵢ₊₂₃) ^ rngCooked[i],  xₖ = 48271ᵏ·x₀ mod (2³¹−1),
//
// which word computes directly from rngPow. No per-word marker is needed to
// know which words are already materialised: both register cursors only
// step downwards from Seed, so after d ≤ 334 draws the touched words are
// exactly i ≥ 607−d (the tap's trail) and 334−d ≤ i ≤ 333 (the feed's). Draw d+1
// therefore finds its feed word untouched while d < 334 and its tap word
// untouched while d < 273; after 334 draws the whole register is live and
// the source runs exactly like math/rand's.
type lazySource struct {
	tap, feed int
	drawn     int    // draws since Seed, saturating at rngLen-rngTap
	x0        uint64 // starting value of the seeding recurrence
	vec       [rngLen]int64
}

// newLazySource returns a lazySource seeded with seed.
func newLazySource(seed int64) *lazySource {
	r := new(lazySource)
	r.Seed(seed)
	return r
}

// Seed resets the source to the state rand.NewSource(seed) starts in,
// normalising the seed exactly like math/rand does.
func (r *lazySource) Seed(seed int64) {
	r.tap, r.feed, r.drawn = 0, rngLen-rngTap, 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	r.x0 = uint64(seed)
}

var _ rand.Source64 = (*lazySource)(nil)

// word returns register word i as math/rand's Seed would have left it.
func (r *lazySource) word(i int) int64 {
	k := rngSeedSkip + 1 + 3*i
	u := int64(mulmod31(rngPow[k], r.x0)) << 40
	u ^= int64(mulmod31(rngPow[k+1], r.x0)) << 20
	u ^= int64(mulmod31(rngPow[k+2], r.x0))
	return u ^ rngCooked[i]
}

// Uint64 returns the next 64-bit value of the stream.
func (r *lazySource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	if r.drawn < rngLen-rngTap {
		r.vec[r.feed] = r.word(r.feed)
		if r.drawn < rngTap {
			r.vec[r.tap] = r.word(r.tap)
		}
		r.drawn++
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (r *lazySource) Int63() int64 {
	return int64(r.Uint64() & rngMask)
}

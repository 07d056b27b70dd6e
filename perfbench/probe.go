package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The machine this benchmark was written on is a shared 2-vCPU virtual
// machine whose speed swings by up to 2x over a few seconds as other
// tenants come and go: a fixed CPU-bound loop timed every half second
// for 90 seconds ranged from 13 to 26 ms, interquartile range 33% of the
// median. Raw timings of 10-second runs spread 15-20% from run to run,
// more than any bound a regression check could use.
//
// The speed probe takes that swing out. It is fixed code of the
// benchmark's own, independent of the program under test, in three
// parts that each stress one level of the memory hierarchy the program
// uses: dependent loads and math.Exp over an L1-sized array (the kind of
// work the colony kernel does), the same over an L2-sized array, and a
// pointer chase through 4 MiB that misses the caches. Timed phases run
// it every probeEvery, between operations, and scale every timing by the
// probe's nominal duration over its duration at that moment. A timing
// then reads as it would on the reference box at its typical load; a
// change in the program still moves it fully, because the probe does
// not run the program. Set-up rounds are scaled the same way. Raw values
// are kept in the provenance record.
//
// On the reference box, scaling cut the spread between 10-second
// windows of a fixed colony loop from 8.5% (raw) to 3.3% with the L1
// part alone and to 2.0% with all three parts.
const probeEvery = 50 * time.Millisecond

// probePart is one level's loop with its nominal duration: its median
// over 1500 runs on the reference box.
type probePart struct {
	nominal time.Duration
	run     func() time.Duration
}

// speedProbe is the fixed reference workload. Every run does exactly
// the same work.
type speedProbe struct {
	parts []probePart
}

// probeSink keeps the probe's results live so the compiler cannot drop
// the loops.
var probeSink float64

func newSpeedProbe() *speedProbe {
	rng := rand.New(rand.NewSource(1))
	floats := func(n int) []float64 {
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()
		}
		return a
	}
	// expLoop returns a loop of dependent loads and math.Exp calls over
	// a copy of src, restored before every run.
	expLoop := func(src []float64, rounds int) func() time.Duration {
		a := make([]float64, len(src))
		return func() time.Duration {
			t0 := time.Now()
			copy(a, src)
			s := 0.0
			for k := 0; k < rounds; k++ {
				for i := range a {
					j := int(a[i] * float64(len(a)-1))
					s += math.Exp(-a[j]) * a[i]
					a[i] = a[j]*0.5 + 0.25
				}
			}
			probeSink = s
			return time.Since(t0)
		}
	}
	// One random cycle through 4 MiB of int32 successors.
	perm := rng.Perm(1 << 20)
	next := make([]int32, len(perm))
	for i, v := range perm {
		next[v] = int32(perm[(i+1)%len(perm)])
	}
	// The chase resumes where the last run stopped, so every run walks
	// lines the previous ones did not leave in the caches.
	j := int32(0)
	chase := func() time.Duration {
		t0 := time.Now()
		for k := 0; k < chaseSteps; k++ {
			j = next[j]
		}
		probeSink = float64(j)
		return time.Since(t0)
	}
	return &speedProbe{parts: []probePart{
		{l1Nominal, expLoop(floats(1<<12), l1Rounds)},
		{l2Nominal, expLoop(floats(1<<15), l2Rounds)},
		{chaseNominal, chase},
	}}
}

// Probe sizes and their nominal durations on the reference box.
const (
	l1Rounds     = 16
	l1Nominal    = 1500 * time.Microsecond
	l2Rounds     = 2
	l2Nominal    = 1570 * time.Microsecond
	chaseSteps   = 24000
	chaseNominal = 740 * time.Microsecond
)

// run executes every part once and returns the machine's slowness: the
// mean over the parts of duration over nominal duration, 1 on the
// reference box at its typical load.
func (p *speedProbe) run() float64 {
	sum := 0.0
	for _, part := range p.parts {
		sum += float64(part.run()) / float64(part.nominal)
	}
	return sum / float64(len(p.parts))
}

// speedLog is a timed phase's probe record: probe k ran before
// operation at[k] and measured slowness slow[k].
type speedLog struct {
	at   []int
	slow []float64
}

// factor returns the scale for operation i: one over the median
// slowness of the probes around it (the three before it and the three
// after), or 1 when the phase ran without probes. A single probe is
// noisy; six of them span about 300 ms, well inside the seconds over
// which the machine's speed changes.
func (l *speedLog) factor(i int) float64 {
	if len(l.slow) == 0 {
		return 1
	}
	k := sort.SearchInts(l.at, i+1) // first probe after operation i
	return 1 / median(l.slow[max(k-3, 0):min(k+3, len(l.slow))])
}

// scaled is d at the speed that the slowness measured before and after
// it implies; zeros (no probe) leave d as measured.
func scaled(d time.Duration, before, after float64) time.Duration {
	if before == 0 || after == 0 {
		return d
	}
	return time.Duration(float64(d) * 2 / (before + after))
}

// runProbe runs p when it is not nil and returns the slowness, 0 for nil.
func runProbe(p *speedProbe) float64 {
	if p == nil {
		return 0
	}
	return p.run()
}

package main

import (
	"time"
)

// timedPasses is how many times a timed phase runs its fixed operation
// list. Each operation's time is the fastest of its passes.
//
// Scaling by the speed probe removes the machine's slowdown on average,
// but not the stalls that come with it: while other tenants hold the
// host, the daemon or the colony is descheduled for milliseconds at a
// time. A stall lands on a few operations of one pass; it lands on the
// same operation in every pass only by rare coincidence. The fastest of
// three passes is the operation's own cost, so the tail and throughput
// repeat from run to run. A change in the program moves every pass
// alike and still shows in full.
const timedPasses = 3

// cpuMeter reads the CPU time of the process doing a phase's work.
type cpuMeter struct {
	read func() (time.Duration, error)
	// self marks the benchmark's own process: the probe's CPU is
	// excluded.
	self bool
}

// phase records one pass over a fixed list of operations. Between
// operations it runs the speed probe every probeEvery; the probe's time
// is excluded from every duration the phase records.
type phase struct {
	probe     *speedProbe
	meter     cpuMeter
	speed     speedLog
	probeCPU  time.Duration // this process's CPU spent in probes
	lastProbe time.Time
	last      time.Time       // end of the previous operation or probe
	lat       []time.Duration // per operation, the program call alone
	busy      []time.Duration // per operation, time since the previous one ended
	cpu       time.Duration   // the meter's reading over the pass
	cpuErr    error
	attempted int
	failed    int
	failures  []string // the first few, for the log
	hw, dum   float64  // sums over succeeded operations
	answers   int
	warmTours []float64 // tours_run of warm-started answers
}

func newPhase(probe *speedProbe, meter cpuMeter) *phase {
	p := &phase{probe: probe, meter: meter}
	p.takeProbe()
	p.cpu = -p.readCPU()
	p.last = time.Now()
	return p
}

func (p *phase) takeProbe() {
	if p.probe != nil {
		cpu0, err0 := selfCPU()
		p.speed.at = append(p.speed.at, p.attempted)
		p.speed.slow = append(p.speed.slow, p.probe.run())
		if cpu1, err := selfCPU(); err == nil && err0 == nil {
			p.probeCPU += cpu1 - cpu0
		}
	}
	p.lastProbe = time.Now()
	p.last = p.lastProbe
}

func (p *phase) readCPU() time.Duration {
	if p.meter.read == nil {
		return 0
	}
	c, err := p.meter.read()
	if err != nil && p.cpuErr == nil {
		p.cpuErr = err
	}
	if p.meter.self {
		c -= p.probeCPU
	}
	return c
}

// next is called before each operation: it probes when one is due.
func (p *phase) next() {
	if p.probe != nil && time.Since(p.lastProbe) >= probeEvery {
		p.takeProbe()
	}
}

// finish reads the CPU meter and takes the closing probe.
func (p *phase) finish() *phase {
	p.cpu += p.readCPU()
	p.takeProbe()
	return p
}

// record books one operation whose program call took lat and which
// ended now. err is the request's failure or its answer's failed check.
func (p *phase) record(lat time.Duration, err error) {
	now := time.Now()
	p.attempted++
	p.lat = append(p.lat, lat)
	p.busy = append(p.busy, now.Sub(p.last))
	p.last = now
	if err != nil {
		p.failed++
		if len(p.failures) < 5 {
			p.failures = append(p.failures, err.Error())
		}
	}
}

func (p *phase) answer(hw, dummies float64) {
	p.hw += hw
	p.dum += dummies
	p.answers++
}

// passes are the repeated passes of one timed phase.
type passes []*phase

func (ps passes) attempted() (n int) {
	for _, p := range ps {
		n += p.attempted
	}
	return n
}

func (ps passes) failed() (n int) {
	for _, p := range ps {
		n += p.failed
	}
	return n
}

func (ps passes) failures() (out []string) {
	for _, p := range ps {
		out = append(out, p.failures...)
	}
	return out
}

func (ps passes) cpuErr() error {
	for _, p := range ps {
		if p.cpuErr != nil {
			return p.cpuErr
		}
	}
	return nil
}

// phaseStats are a phase's timing statistics.
type phaseStats struct {
	p50, p99   pct
	throughput float64 // 1/s
	cpuPerOp   float64 // ms
}

// stats computes the timing statistics of the passes, every duration
// scaled to nominal machine speed or raw. Each operation's latency and
// busy time is the fastest of its passes; throughput is the operations
// over their summed busy times; CPU per operation is that of the pass
// that used the least.
func (ps passes) stats(scale bool) phaseStats {
	var st phaseStats
	if len(ps) == 0 || len(ps[0].lat) == 0 {
		return st
	}
	n := len(ps[0].lat)
	lat := make([]time.Duration, n)
	var busy time.Duration
	for i := 0; i < n; i++ {
		var l, b time.Duration = -1, -1
		for _, p := range ps {
			if i >= len(p.lat) {
				continue
			}
			f := 1.0
			if scale {
				f = p.speed.factor(i)
			}
			pl, pb := time.Duration(float64(p.lat[i])*f), time.Duration(float64(p.busy[i])*f)
			if l < 0 || pl < l {
				l = pl
			}
			if b < 0 || pb < b {
				b = pb
			}
		}
		lat[i] = l
		busy += b
	}
	ms := sortedMS(lat)
	st.p50 = percentile(ms, 0.50)
	st.p99 = percentile(ms, 0.99)
	st.throughput = float64(n) / busy.Seconds()
	st.cpuPerOp = -1
	for _, p := range ps {
		var raw, scaled float64
		for i := range p.busy {
			f := 1.0
			if scale {
				f = p.speed.factor(i)
			}
			raw += float64(p.busy[i])
			scaled += float64(p.busy[i]) * f
		}
		if raw == 0 || p.attempted == 0 {
			continue
		}
		c := float64(p.cpu) * scaled / raw / float64(time.Millisecond) / float64(p.attempted)
		if st.cpuPerOp < 0 || c < st.cpuPerOp {
			st.cpuPerOp = c
		}
	}
	return st
}

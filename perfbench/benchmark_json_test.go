package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesReport: the metrics a run prints, by name and
// unit, are exactly those BENCHMARK.json declares.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}

	// A synthetic run of 1000 operations, three passes.
	var ps passes
	for k := 0; k < timedPasses; k++ {
		ph := newPhase(nil, cpuMeter{read: func() (time.Duration, error) { return time.Second, nil }})
		for i := 0; i < 1000; i++ {
			ph.record(time.Duration(i+1)*time.Microsecond, nil)
			ph.answer(30, 50)
		}
		ps = append(ps, ph.finish())
	}
	layers := map[string]float64{}
	for name := range layerUnits {
		layers[name] = 1
	}
	res := &result{timed: ps, traced: ps, setups: []setupRound{{time.Second, time.Second}}, layers: layers}

	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		got := report(res, c.traced).summary.Metrics
		if len(got) != len(c.want) {
			t.Errorf("trace=%t: %d metrics reported, BENCHMARK.json lists %d", c.traced, len(got), len(c.want))
		}
		for _, w := range c.want {
			if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("trace=%t: %s reported as %+v (present %t), want unit %s", c.traced, w.Name, m, ok, w.Unit)
			}
		}
	}
}

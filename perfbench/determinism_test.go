package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildDaemon builds the real daglayer into a temporary directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and drives the real daemon")
	}
	bin := filepath.Join(t.TempDir(), "daglayer")
	cmd := exec.Command("go", "build", "-o", bin, "antlayer/cmd/daglayer")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build daglayer: %v\n%s", err, out)
	}
	return bin
}

// TestFixedWorkDeterminism: two short traced runs of each workload with
// the same seed do the same operations, so their quality means, their
// result-cache hit fraction and their warm-hit count agree exactly, and
// every operation passes its correctness check.
func TestFixedWorkDeterminism(t *testing.T) {
	bin := buildDaemon(t)
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			var outs [2]output
			for i := range outs {
				cfg := config{seed: 7, seconds: 1, daemon: bin, traced: true, setupRounds: 1}
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.timed.failed() != 0 || res.traced.failed() != 0 {
					t.Fatalf("run %d: failures %v %v", i, res.timed.failures(), res.traced.failures())
				}
				outs[i] = report(res, true)
				// Every pass, untraced and traced, runs the same
				// operations and gets the same answers.
				first := res.timed[0]
				for _, p := range append(append(passes{}, res.timed...), res.traced...) {
					if p.answers != p.attempted || p.attempted != first.attempted {
						t.Fatalf("run %d: %d answers for %d operations, first pass %d", i, p.answers, p.attempted, first.attempted)
					}
					if p.hw != first.hw || p.dum != first.dum {
						t.Errorf("run %d: pass quality sums (%g, %g) != first pass (%g, %g)", i, p.hw, p.dum, first.hw, first.dum)
					}
				}
				outs[i].summary.Metrics["quality_hw_sum"] = metric{Value: first.hw}
				outs[i].summary.Metrics["quality_dummies_sum"] = metric{Value: first.dum}
			}
			for _, key := range []string{"quality_hw_sum", "quality_dummies_sum", "cache.hit_frac", "warm.hits", "warm.hit_frac"} {
				a, b := outs[0].summary.Metrics[key].Value, outs[1].summary.Metrics[key].Value
				if a != b {
					t.Errorf("%s: %g then %g", key, a, b)
				}
			}
			m := outs[0].summary.Metrics
			switch name {
			case "serve-hot":
				if m["cache.hit_frac"].Value != 1 {
					t.Errorf("serve-hot cache.hit_frac = %g, want 1", m["cache.hit_frac"].Value)
				}
			case "edit-stream":
				chains := chainsPerSecond * 1
				ins, err := chainInputs(7, "x", chains, chainSteps)
				if err != nil {
					t.Fatal(err)
				}
				want := timedPasses * (len(ins) - chains)
				if m["cache.hit_frac"].Value != 0 || m["warm.hits"].Value != float64(want) {
					t.Errorf("edit-stream cache.hit_frac %g warm.hits %g, want 0 and %d",
						m["cache.hit_frac"].Value, m["warm.hits"].Value, want)
				}
			}
		})
	}
}

// Command perfbench is the repository's benchmark: three fixed-work
// workloads over the antlayer library and the daglayer daemon, with
// correctness checks on every operation. See README.md in this
// directory; perfbench/run.sh builds the daemon and this command and
// runs it from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 makes the separate traced run and reports the
// per-layer metrics. A human-readable table goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(context.Context, config) (*result, error){
	"paper-corpus": runPaperCorpus,
	"serve-hot":    runServeHot,
	"edit-stream":  runEditStream,
}

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "paper-corpus | serve-hot | edit-stream")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "sizes the fixed work to about this many seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	daemonBin := fs.String("daemon", "", "path to a built daglayer binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runFn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *daemonBin == "" {
		fmt.Fprintf(stderr, "perfbench: need -workload paper-corpus|serve-hot|edit-stream, -seconds >= 1, -trace 0|1 and -daemon\n")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{seed: *seed, seconds: *seconds, daemon: *daemonBin, traced: *trace == 1, setupRounds: setupRounds, probe: newSpeedProbe()}
	res, err := runFn(ctx, cfg)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	out := report(res, cfg.traced)
	prov := provenance(*workload, cfg, res, out)
	writeTable(stderr, *workload, out)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		return 1
	}
	if err := enc.Encode(out.summary); err != nil {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// output is a run's summary plus what the provenance record needs.
type output struct {
	summary     summary
	percentiles map[string]pct
	raw         map[string]float64 // unscaled timings, for provenance
	failures    []string
}

// layerUnits gives every per-layer metric its unit; BENCHMARK.json lists
// the same names.
var layerUnits = map[string]string{
	"core.colony_ms_p50":         "ms",
	"core.new_colony_us_p50":     "us",
	"core.tour_us_p50":           "us",
	"core.ns_per_ant_vertex":     "ns",
	"core.allocs_per_run":        "count",
	"core.tau_bytes_computed":    "B",
	"core.useful_tour_frac":      "frac",
	"parse.request_us_p50":       "us",
	"parse.graph_us_p50":         "us",
	"parse.graph_edges_us_p50":   "us",
	"parse.graph_dot_us_p50":     "us",
	"parse.allocs_per_req":       "count",
	"parse.bytes_per_us":         "B/us",
	"serve.span_parse_us":        "us",
	"serve.span_warm_us":         "us",
	"serve.span_cache_lookup_us": "us",
	"serve.span_queue_wait_us":   "us",
	"serve.span_compute_us":      "us",
	"serve.unspanned_us":         "us",
	"serve.compute_with_ms_p50":  "ms",
	"serve.respond_us_p50":       "us",
	"cache.hit_frac":             "frac",
	"warm.hit_frac":              "frac",
	"warm.hits":                  "count",
	"warm.tours_saved_per_req":   "count",
	"warm.tours_run_mean":        "count",
	"warm.remap_us_p50":          "us",
	"daemon.gc_cycles_per_1k":    "count",
	"daemon.heap_alloc_mb":       "MB",
	"obs.trace_overhead_frac":    "frac",
}

// report turns a run's measurements into its result line. Timings are
// at nominal machine speed (see probe.go); provenance keeps them raw.
func report(res *result, traced bool) output {
	ps := res.timed
	out := output{percentiles: map[string]pct{}, raw: map[string]float64{}}
	out.summary.Attempted = ps.attempted()
	out.summary.Failed = ps.failed()
	out.failures = ps.failures()
	m := map[string]metric{}
	st, raw := ps.stats(true), ps.stats(false)
	out.raw["latency_p50_ms"] = raw.p50.Value
	if !traced {
		m["throughput_per_s"] = metric{st.throughput, "1/s"}
		out.raw["throughput_per_s"] = raw.throughput
		m["latency_p50_ms"] = metric{st.p50.Value, "ms"}
		out.percentiles["latency_p50_ms"] = st.p50
		if st.p99.reportable() {
			m["latency_p99_ms"] = metric{st.p99.Value, "ms"}
			out.percentiles["latency_p99_ms"] = st.p99
			out.raw["latency_p99_ms"] = raw.p99.Value
		}
		m["ok_frac"] = metric{float64(out.summary.Attempted-out.summary.Failed) / float64(out.summary.Attempted), "frac"}
		var hw, dum, answers float64
		for _, p := range ps {
			hw, dum, answers = hw+p.hw, dum+p.dum, answers+float64(p.answers)
		}
		if answers > 0 {
			m["quality_hw_mean"] = metric{hw / answers, "hw"}
			m["quality_dummies_mean"] = metric{dum / answers, "count"}
		}
		if ps.cpuErr() == nil {
			m["cpu_ms_per_op"] = metric{st.cpuPerOp, "ms"}
			out.raw["cpu_ms_per_op"] = raw.cpuPerOp
		}
		m["peak_rss_mb"] = metric{res.rssMB, "MB"}
		var setups, rawSetups []float64
		for _, s := range res.setups {
			setups = append(setups, s.scaled.Seconds())
			rawSetups = append(rawSetups, s.raw.Seconds())
		}
		m["setup_s"] = metric{median(setups), "s"}
		out.raw["setup_s"] = median(rawSetups)
	} else {
		tr := res.traced
		out.summary.Attempted += tr.attempted()
		out.summary.Failed += tr.failed()
		out.failures = append(out.failures, tr.failures()...)
		tp50 := tr.stats(true).p50
		out.percentiles["untraced_latency_p50_ms"] = st.p50
		out.percentiles["traced_latency_p50_ms"] = tp50
		for name, v := range res.layers {
			m[name] = metric{v, layerUnits[name]}
		}
		m["obs.trace_overhead_frac"] = metric{tp50.Value/st.p50.Value - 1, "frac"}
	}
	out.summary.Metrics = m
	out.summary.Correct = out.summary.Failed == 0
	return out
}

// provenance is the record printed with every run (the line before the
// result): what ran, where, on which inputs, and how many samples stand
// behind each percentile.
func provenance(workload string, cfg config, res *result, out output) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	p := map[string]any{
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"commit":      commit,
		"modified":    modified,
		"workload":    workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.traced,
		"operations":  out.summary.Attempted,
		"percentiles": out.percentiles,
		"raw":         out.raw,
	}
	if res.daemonBuild != nil {
		p["daemon_build"] = res.daemonBuild
	}
	if len(out.failures) > 0 {
		p["failures"] = out.failures
	}
	return p
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeTable(w io.Writer, workload string, out output) {
	fmt.Fprintf(w, "perfbench %s: %d attempted, %d failed, correct=%t\n",
		workload, out.summary.Attempted, out.summary.Failed, out.summary.Correct)
	for _, f := range out.failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	names := make([]string, 0, len(out.summary.Metrics))
	for name := range out.summary.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.summary.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

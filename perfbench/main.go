// Command perfbench is the repository benchmark. It runs one named
// workload through the repository's public Go entry points for a fixed
// time, checks every output against an independent reference, and
// prints its metrics; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 0.71, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper|replay-heavy|serve --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --steady 10 [--workload W] [--seconds S]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer breakdown and the tracing overhead instead. --steady runs
// each workload repeatedly with successive seeds and reports every
// end-to-end metric's spread against its bound in BENCHMARK.json. See
// perfbench/README.md for the catalog.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, replay-heavy or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	traced := fs.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	steady := fs.Int("steady", 0, "run each workload this many times and report each end-to-end metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *steady > 0 {
		return steadiness(cfg, *name, *seed, *steady, *seconds, stdout, stderr)
	}
	if *name == "" {
		fmt.Fprintln(stderr, "perfbench: -workload is required")
		return 2
	}
	fp := fingerprint(*seed)
	fpb, _ := json.Marshal(fp) // a struct of strings and ints
	fmt.Fprintf(stdout, "fingerprint %s\n", fpb)

	dir, err := workDir()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	res, failures, err := runWorkload(*name, *seed, *seconds, *traced == 1, fullSize, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range failures {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *name, f)
	}
	want := cfg.EndToEnd
	if *traced == 1 {
		want = cfg.PerLayer
	}
	for _, m := range want {
		if _, ok := res.Metrics[m.Name]; !ok && res.Correct {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured\n", *name, m.Name)
			return 1
		}
	}
	printSummary(stdout, *name, res)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload for the given time and returns its
// result (the end-to-end metrics, or with traced the per-layer ones)
// and the first few failures.
func runWorkload(name string, seed int64, seconds float64, traced bool, sz sizes, dir string) (*result, []string, error) {
	w, err := newWorkload(name, seed, sz, dir)
	if err != nil {
		return nil, nil, err
	}
	var (
		r  *recorder
		ms map[string]metric
	)
	if traced {
		var lm layerMetrics
		lm, r, err = traceRun(name, w, seconds, sz, dir)
		ms = lm
	} else {
		r = &recorder{}
		err = measureLoop(w, r, seconds, sz)
		if err == nil {
			ms, err = endToEnd(r)
		}
	}
	if err != nil {
		// A failed operation ends the run; it is reported, not hidden.
		r.check(err)
		ms = map[string]metric{}
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
	return res, r.failures, nil
}

// endToEnd reduces a run's samples to the end-to-end metrics.
func endToEnd(r *recorder) (map[string]metric, error) {
	if len(r.hitTails) == 0 {
		return nil, fmt.Errorf("no hit unit made the %d requests a p99 needs", samplesForTail(0.99))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"wall_s":             {median(r.rounds), "s"},
		"sim_minsts_per_s":   {median(r.rates), "Minst/s"},
		"setup_s":            {median(r.setups), "s"},
		"ipc_err_pct":        {r.ipcErrPct, "%"},
		"hit_p50_us":         {median(r.hits), "us"},
		"hit_p99_us":         {median(r.hitTails), "us"},
		"hit_rps":            {median(r.hitRates), "1/s"},
		"hit_allocs_per_req": {float64(r.hitAllocs) / float64(len(r.hits)), "count"},
		"miss_p50_ms":        {median(r.misses), "ms"},
		"max_rss_mb":         {rss, "MB"},
	}, nil
}

func printSummary(w io.Writer, name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-28s %14.6g %s\n", name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%s %-28s %14.6g (%d failed of %d)\n", name, "error_rate",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
}

// benchConfig is the part of BENCHMARK.json the benchmark reads.
type benchConfig struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundMetric `json:"end_to_end"`
	PerLayer []boundMetric `json:"per_layer"`
}

type boundMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadConfig(path string) (*benchConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var c benchConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) == 0 || len(c.EndToEnd) == 0 {
		return nil, errors.New(path + ": no workloads or end-to-end metrics")
	}
	return &c, nil
}

package main

import (
	"testing"
)

// tinySize shrinks every round so each workload's smoke run takes
// seconds; a hit unit still makes the requests a p99 needs.
var tinySize = sizes{
	paperInsts: 600, paperWarmup: 200,
	heavyInsts: 3000, heavyWarmup: 500,
	serveInsts: 600, serveWarmup: 200,
	hitsPerUnit: samplesForTail(0.99), minRounds: 1,
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted
// with its unit and that every output check passed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range cfg.Workloads {
		name := wl.Name
		for _, traced := range []bool{false, true} {
			want := cfg.EndToEnd
			if traced {
				want = cfg.PerLayer
			}
			res, failures, err := runWorkload(name, 7, 0.01, traced, tinySize, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d failed: %v", name, traced, res.Failed, res.Attempted, failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s in %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if v := res.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end %s = %v, must be positive", name, m.Name, v)
					}
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newWorkload("nope", 1, tinySize, t.TempDir()); err == nil {
		t.Fatal("an unknown workload was accepted")
	}
}

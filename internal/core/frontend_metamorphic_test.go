package core

import (
	"encoding/json"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/workload"
)

// TestInertPrefetcherBitIdentical is the metamorphic contract for the
// prefetcher integration: a stride prefetcher whose firing threshold
// sits above the confidence saturation point can never issue, so
// attaching it must leave every scheme's run bit-identical to the
// prefetch-free machine — the retired stream, the cycle count, and
// every statistic. Any divergence means the prefetcher hook perturbs
// timing even when it does nothing, which would poison every
// with/without-prefetch comparison in EXPERIMENTS.md.
func TestInertPrefetcherBitIdentical(t *testing.T) {
	run := func(t *testing.T, cfg Config) *Stats {
		t.Helper()
		p, err := workload.ByName("gcc")
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewGenerator(p, 9)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, s := range Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config4Wide()
			cfg.Scheme = s
			cfg.Warmup = 1_000
			cfg.MaxInsts = 6_000

			off := run(t, cfg)

			inert := cfg
			inert.Prefetch = prefetch.DefaultStride()
			inert.Prefetch.MinConfidence = prefetch.MaxConfidence + 1
			on := run(t, inert)

			if on.PrefetchIssued != 0 {
				t.Fatalf("inert prefetcher issued %d prefetches", on.PrefetchIssued)
			}
			if got, want := statsJSON(t, on), statsJSON(t, off); got != want {
				t.Errorf("inert prefetcher perturbed the run\n  off   %s\n  inert %s", want, got)
			}
		})
	}
}

func statsJSON(t *testing.T, st *Stats) string {
	t.Helper()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

package repro

import "testing"

func TestRunBasic(t *testing.T) {
	res, err := Run(Options{Benchmark: "gap", Insts: 20_000, Warmup: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0.5 || res.IPC > 4 {
		t.Fatalf("implausible IPC %.3f", res.IPC)
	}
	// Retire batching can shift the measured window by up to Width.
	if res.Stats == nil || res.Stats.Retired < 20_000-8 {
		t.Fatal("stats missing or truncated")
	}
	if res.PredictorCoverage[0] != 1.0 {
		t.Errorf("coverage at threshold 0 must be 1, got %v", res.PredictorCoverage[0])
	}
}

func TestRunRejectsJunk(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := Run(Options{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	w := Workload{Name: "bad", DepMean: 0}
	if _, err := Run(Options{Workload: &w}); err == nil {
		t.Fatal("invalid custom workload accepted")
	}
}

// TestSchemeConstants pins the facade's exported scheme constants to
// the registry: a registered scheme without a constant here fails.
func TestSchemeConstants(t *testing.T) {
	facade := []Scheme{PosSel, IDSel, NonSel, DSel, TkSel, ReInsert,
		Refetch, Conservative, SerialVerify, LoadDelay}
	exported := make(map[Scheme]bool, len(facade))
	for _, s := range facade {
		if exported[s] {
			t.Errorf("%v has two facade constants", s)
		}
		exported[s] = true
	}
	registered := Schemes()
	for _, s := range registered {
		if !exported[s] {
			t.Errorf("registered scheme %v has no facade constant", s)
		}
	}
	if len(registered) != len(exported) {
		t.Errorf("%d facade constants for %d registered schemes", len(exported), len(registered))
	}
}

func TestBenchmarksList(t *testing.T) {
	b := Benchmarks()
	if len(b) != 12 || b[0] != "bzip" || b[6] != "mcf" {
		t.Fatalf("unexpected benchmark list %v", b)
	}
	// The returned slice must be a copy.
	b[0] = "clobbered"
	if Benchmarks()[0] != "bzip" {
		t.Fatal("Benchmarks() exposes internal state")
	}
}

func TestBenchmarkWorkloadRoundTrip(t *testing.T) {
	w, err := BenchmarkWorkload("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "mcf" || w.ColdFrac < 0.1 {
		t.Fatalf("mcf workload looks wrong: %+v", w)
	}
	// A custom run from the preset must work.
	w.ColdFrac = 0.05
	w.WarmFrac = 0.05
	res, err := Run(Options{Workload: &w, Insts: 10_000, Warmup: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatal("zero IPC")
	}
}

func TestCompareSchemes(t *testing.T) {
	c, err := CompareSchemes(Options{Benchmark: "gzip", Insts: 20_000, Warmup: 10_000},
		PosSel, NonSel, TkSel)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != 3 || c.RelativeIPC[0] != 1.0 || c.RelativeIssues[0] != 1.0 {
		t.Fatalf("baseline not normalized: %+v", c.RelativeIPC)
	}
	// NonSel replays independents: at least as many issues as PosSel.
	if c.RelativeIssues[1] < 1.0 {
		t.Errorf("NonSel normalized issues %.3f < 1", c.RelativeIssues[1])
	}
	if _, err := CompareSchemes(Options{Benchmark: "gzip"}); err == nil {
		t.Fatal("empty scheme list accepted")
	}
}

func TestTokensOverride(t *testing.T) {
	run := func(tokens int) float64 {
		res, err := Run(Options{Benchmark: "mcf", Scheme: TkSel, Insts: 20_000,
			Warmup: 10_000, Tokens: tokens})
		if err != nil {
			t.Fatal(err)
		}
		return res.TokenCoverage
	}
	small, big := run(2), run(48)
	if big <= small {
		t.Errorf("coverage with 48 tokens (%.3f) should exceed 2 tokens (%.3f)", big, small)
	}
}

func TestValuePredictionOption(t *testing.T) {
	base, err := Run(Options{Benchmark: "perl", Scheme: TkSel, Insts: 20_000, Warmup: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	vp, err := Run(Options{Benchmark: "perl", Scheme: TkSel, ValuePrediction: true,
		Insts: 20_000, Warmup: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if vp.Stats.ValuePredictions == 0 {
		t.Fatal("no value predictions consumed")
	}
	if vp.ValueAccuracy < 0.6 {
		t.Errorf("value accuracy %.2f too low for a confidence-gated predictor", vp.ValueAccuracy)
	}
	if vp.IPC < base.IPC*0.95 {
		t.Errorf("value prediction dropped IPC from %.3f to %.3f", base.IPC, vp.IPC)
	}
	// Timing-based schemes must reject it, as §3.5 argues.
	if _, err := Run(Options{Benchmark: "perl", Scheme: NonSel, ValuePrediction: true}); err == nil {
		t.Fatal("NonSel accepted value prediction")
	}
}

func TestReplayQueueOption(t *testing.T) {
	res, err := Run(Options{Benchmark: "twolf", Scheme: PosSel, ReplayQueue: true,
		Insts: 20_000, Warmup: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RQReplays == 0 {
		t.Error("replay-queue model recorded no blind replays on twolf")
	}
	if _, err := Run(Options{Benchmark: "twolf", Scheme: TkSel, ReplayQueue: true}); err == nil {
		t.Fatal("TkSel accepted the replay-queue model")
	}
}

package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func testOpts() Options {
	return Options{Insts: 8_000, Warmup: 2_000, Seed: 5, Parallelism: 2}
}

func TestRunMemoizesAndNormalizes(t *testing.T) {
	e := NewEngine(testOpts())
	ctx := context.Background()
	a, err := e.Run(ctx, Spec{Bench: "gap", Scheme: core.PosSel})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(ctx, Spec{Bench: "gap", Scheme: core.PosSel})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second run was not served from the cache")
	}
	// Overrides that restate the Table 3 defaults normalize away and
	// share the stock run's cache entry.
	base := core.Config4Wide()
	c, err := e.Run(ctx, Spec{Bench: "gap", Scheme: core.PosSel,
		Over: Overrides{IQSize: base.IQSize, Tokens: base.Tokens}})
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("default-valued overrides did not normalize onto the stock run")
	}
	if got := e.Cached(); got != 1 {
		t.Errorf("cached %d distinct runs, want 1", got)
	}
}

// TestNormalizeZeroOverrideAllocFree: normalizing a spec with no
// frontend override allocates nothing. A store hit normalizes the same
// spec twice (request parse and cache key), so a stray allocation here
// lands on every cache-hit request the service answers.
func TestNormalizeZeroOverrideAllocFree(t *testing.T) {
	specs := []Spec{
		{Bench: "mcf", Scheme: core.TkSel},
		{Bench: "gcc", Wide8: true, Scheme: core.PosSel, Over: Overrides{Tokens: 8, ReplayQueue: true}},
	}
	for _, s := range specs {
		var out Spec
		if n := testing.AllocsPerRun(100, func() { out = s.Normalize() }); n != 0 {
			t.Errorf("%s: Normalize allocated %.0f times per call, want 0", s, n)
		}
		if out.Over.Bpred != "" || out.Over.Prefetch != "" {
			t.Errorf("%s: normalized frontend overrides %q/%q, want empty", s, out.Over.Bpred, out.Over.Prefetch)
		}
	}
}

func TestRunAllPartialResultsAndJoinedError(t *testing.T) {
	e := NewEngine(testOpts())
	specs := []Spec{
		{Bench: "gap", Scheme: core.PosSel},
		{Bench: "nope", Scheme: core.PosSel},
		{Bench: "gzip", Scheme: core.PosSel},
		{Bench: "also-nope", Scheme: core.PosSel},
	}
	outs, err := e.RunAll(context.Background(), specs)
	if err == nil {
		t.Fatal("bad benchmarks did not error")
	}
	for _, want := range []string{"nope", "also-nope"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	if len(outs) != 4 {
		t.Fatalf("got %d outputs, want 4", len(outs))
	}
	if outs[0] == nil || outs[2] == nil {
		t.Error("good specs lost their results because bad specs failed")
	}
	if outs[1] != nil || outs[3] != nil {
		t.Error("failed specs returned non-nil results")
	}
	snap := e.Snapshot()
	if snap.Failed != 2 || snap.Done != 2 {
		t.Errorf("snapshot done=%d failed=%d, want 2/2", snap.Done, snap.Failed)
	}
}

// Two goroutines running overlapping batches on one engine must agree
// on results and simulate each distinct spec once — the singleflight
// path under -race.
func TestConcurrentOverlappingRunAll(t *testing.T) {
	e := NewEngine(testOpts())
	batch1 := []Spec{
		{Bench: "gap", Scheme: core.PosSel},
		{Bench: "gzip", Scheme: core.TkSel},
		{Bench: "gcc", Scheme: core.NonSel},
	}
	batch2 := []Spec{
		{Bench: "gzip", Scheme: core.TkSel},
		{Bench: "gap", Scheme: core.PosSel},
		{Bench: "vpr", Scheme: core.DSel},
	}
	var wg sync.WaitGroup
	var out1, out2 []*RunOut
	var err1, err2 error
	wg.Add(2)
	go func() { defer wg.Done(); out1, err1 = e.RunAll(context.Background(), batch1) }()
	go func() { defer wg.Done(); out2, err2 = e.RunAll(context.Background(), batch2) }()
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// Shared specs resolve to the same memoized output object.
	if out1[0] != out2[1] || out1[1] != out2[0] {
		t.Error("overlapping specs were simulated separately")
	}
	if got := e.Cached(); got != 4 {
		t.Errorf("cached %d distinct runs, want 4", got)
	}
}

func TestCancelMidBatchReturnsPromptlyWithPartialResults(t *testing.T) {
	// One worker and long runs, so cancellation lands while later specs
	// are still queued or mid-simulation.
	e := NewEngine(Options{Insts: 400_000, Warmup: 2_000, Seed: 5, Parallelism: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	specs := []Spec{
		{Bench: "gap", Scheme: core.PosSel},
		{Bench: "gzip", Scheme: core.TkSel},
		{Bench: "gcc", Scheme: core.NonSel},
	}
	start := time.Now()
	outs, err := e.RunAll(ctx, specs)
	if err == nil {
		t.Fatal("canceled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("canceled batch took %v to return", elapsed)
	}
	if len(outs) != len(specs) {
		t.Fatalf("got %d outputs, want %d", len(outs), len(specs))
	}
	done := 0
	for _, o := range outs {
		if o != nil {
			done++
		}
	}
	if done == len(specs) {
		t.Error("every spec completed; cancellation landed too late to test anything")
	}
}

func TestJournalResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	opts := testOpts()
	opts.Journal = path
	specs := []Spec{
		{Bench: "gap", Scheme: core.PosSel},
		{Bench: "gzip", Scheme: core.TkSel},
		{Bench: "mcf", Wide8: true, Scheme: core.SerialVerify,
			Over: Overrides{Tokens: 4}},
	}
	e1 := NewEngine(opts)
	first, err := e1.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(opts)
	second, err := e2.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	snap := e2.Snapshot()
	if snap.Resumed != int64(len(specs)) {
		t.Errorf("resumed %d runs, want %d", snap.Resumed, len(specs))
	}
	if snap.Insts != 0 {
		t.Errorf("resumed batch simulated %d instructions, want 0", snap.Insts)
	}
	for i := range specs {
		if !reflect.DeepEqual(first[i].Stats, second[i].Stats) {
			t.Errorf("%s: stats diverge across journal resume", specs[i])
		}
		if !reflect.DeepEqual(first[i].Meter, second[i].Meter) {
			t.Errorf("%s: meter diverges across journal resume", specs[i])
		}
	}
	// A pure-resume batch re-simulates nothing, so it appends nothing.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("resume mutated the journal")
	}
}

func TestJournalSkipsTornAndMismatchedLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	opts := testOpts()
	opts.Journal = path
	spec := Spec{Bench: "gap", Scheme: core.PosSel}
	e1 := NewEngine(opts)
	if _, err := e1.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn tail line (interrupted write) and an entry recorded under
	// different run-length options.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"bench":"gzip","scheme":"PosSel","insts":999,"warmup":2000,"seed":5,`+
		`"stats":{},"meter":{"loads":[0,0,0,0],"misses":[0,0,0,0]}}`+"\n")
	fmt.Fprintf(f, `{"bench":"gap","scheme":"PosSel","in`) // torn
	f.Close()

	e2 := NewEngine(opts)
	defer e2.Close()
	if got := e2.JournalSkipped(); got != 2 {
		t.Errorf("skipped %d journal lines, want 2", got)
	}
	if _, err := e2.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if snap := e2.Snapshot(); snap.Resumed != 1 {
		t.Errorf("resumed %d, want 1 (the valid line)", snap.Resumed)
	}
}

// A failure on the pooled machine is retried once on a fresh machine;
// the retried result must match a clean engine's.
func TestRetryOnFreshMachineMatchesCleanRun(t *testing.T) {
	spec := Spec{Bench: "gap", Scheme: core.TkSel}
	clean, err := NewEngine(testOpts()).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(testOpts())
	failed := false
	e.runHook = func(s Spec, attempt int) error {
		if attempt == 0 && !failed {
			failed = true
			return errors.New("injected pooled-machine fault")
		}
		return nil
	}
	out, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap := e.Snapshot(); snap.Retried != 1 {
		t.Errorf("retried %d times, want 1", snap.Retried)
	}
	if !reflect.DeepEqual(clean.Stats, out.Stats) {
		t.Error("retried run diverges from clean run")
	}
}

// A spec that fails on every attempt reports the failure and does not
// poison the pool for subsequent specs.
func TestPersistentFailureReportedPoolSurvives(t *testing.T) {
	e := NewEngine(Options{Insts: 8_000, Warmup: 2_000, Seed: 5, Parallelism: 1})
	bad := Spec{Bench: "gap", Scheme: core.NonSel}
	e.runHook = func(s Spec, attempt int) error {
		if s == bad.Normalize() {
			return errors.New("persistent fault")
		}
		return nil
	}
	if _, err := e.Run(context.Background(), bad); err == nil {
		t.Fatal("persistent fault not reported")
	}
	if snap := e.Snapshot(); snap.Retried != 1 || snap.Failed != 1 {
		t.Errorf("retried=%d failed=%d, want 1/1", snap.Retried, snap.Failed)
	}
	// The single worker slot must still be usable.
	if _, err := e.Run(context.Background(), Spec{Bench: "gzip", Scheme: core.PosSel}); err != nil {
		t.Fatalf("pool poisoned by failed spec: %v", err)
	}
}

func TestRunFacade(t *testing.T) {
	out, err := Run(context.Background(), Spec{Bench: "gap", Scheme: core.PosSel}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats == nil || out.Stats.Retired == 0 || out.Meter == nil {
		t.Error("facade returned empty results")
	}
}

func TestProgressCallbackAndCounters(t *testing.T) {
	var mu sync.Mutex
	var last Snapshot
	calls := 0
	opts := testOpts()
	opts.OnProgress = func(s Snapshot) {
		mu.Lock()
		last = s
		calls++
		mu.Unlock()
	}
	e := NewEngine(opts)
	specs := []Spec{
		{Bench: "gap", Scheme: core.PosSel},
		{Bench: "gzip", Scheme: core.TkSel},
	}
	if _, err := e.RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
	if last.Queued != 2 || last.Done != 2 || last.Running != 0 || last.Failed != 0 {
		t.Errorf("final snapshot %+v, want queued=2 done=2 running=0 failed=0", last)
	}
	if last.Insts != 2*8_000 {
		// Each run retires at least Insts; allow the off-by-few from
		// retire-width granularity.
		if last.Insts < 2*8_000 || last.Insts > 2*8_000+64 {
			t.Errorf("instruction counter %d implausible", last.Insts)
		}
	}
	if last.UopsPerSec() <= 0 {
		t.Error("throughput not positive")
	}
}

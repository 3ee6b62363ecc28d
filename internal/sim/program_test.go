package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
)

// TestEngineProgramMemo: an engine compiles each benchmark's workload
// program once and every run of that bench walks the shared program —
// batch runs and a retried run alike — with results identical to a
// fresh engine's.
func TestEngineProgramMemo(t *testing.T) {
	ctx := context.Background()
	opts := Options{Insts: 4_000, Warmup: 1_000, Seed: 5, Parallelism: 2}
	var specs []Spec
	for _, bench := range []string{"mcf", "gcc"} {
		for _, scheme := range []core.Scheme{core.PosSel, core.TkSel, core.NonSel} {
			for _, wide8 := range []bool{false, true} {
				specs = append(specs, Spec{Bench: bench, Scheme: scheme, Wide8: wide8})
			}
		}
	}
	e := NewEngine(opts)
	outs, err := e.RunAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.programs); n != 2 {
		t.Errorf("engine holds %d programs after two benches, want 2", n)
	}
	for i, s := range specs {
		fresh, err := Run(ctx, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, fresh, outs[i])
	}

	// Retry path: a new spec of a compiled bench fails on its pooled
	// machine and reruns on a fresh one, both from the shared program.
	retry := Spec{Bench: "gcc", Scheme: core.ReInsert}
	failed := false
	e.runHook = func(s Spec, attempt int) error {
		if attempt == 0 && !failed {
			failed = true
			return errors.New("injected pooled-machine fault")
		}
		return nil
	}
	out, err := e.Run(ctx, retry)
	if err != nil {
		t.Fatal(err)
	}
	if snap := e.Snapshot(); snap.Retried != 1 {
		t.Errorf("retried %d times, want 1", snap.Retried)
	}
	fresh, err := Run(ctx, retry, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, fresh, out)
	if n := len(e.programs); n != 2 {
		t.Errorf("engine holds %d programs after the retry, want 2", n)
	}
}

func assertSameRun(t *testing.T, a, b *RunOut) {
	t.Helper()
	if a.Stats.RetireHash != b.Stats.RetireHash {
		t.Errorf("retire hash %016x vs %016x", a.Stats.RetireHash, b.Stats.RetireHash)
	}
	aj, err := json.Marshal(a.Stats)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("stats diverged\n  a %s\n  b %s", aj, bj)
	}
}

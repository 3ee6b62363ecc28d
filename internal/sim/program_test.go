package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// TestEngineProgramMemo: an engine compiles each benchmark's workload
// program once and every run of that bench walks the shared program —
// batch runs, a retried run and a checkpoint warm start alike — with
// results identical to a fresh engine's.
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

	// Warm start: one engine leaves a checkpoint artifact; another
	// compiles the bench for a different spec, then restores the
	// artifact's spec from that same program.
	ck := opts
	ck.CheckpointDir = t.TempDir()
	ck.CheckpointEvery = 1_000
	warmSpec := specs[2] // mcf, TkSel, 4-wide
	if _, err := Run(ctx, warmSpec, ck); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(ck)
	if _, err := e2.Run(ctx, Spec{Bench: "mcf", Scheme: core.PosSel}); err != nil {
		t.Fatal(err)
	}
	warm, err := e2.Run(ctx, warmSpec)
	if err != nil {
		t.Fatal(err)
	}
	if snap := e2.Snapshot(); snap.Warmed != 1 {
		t.Errorf("engine warm-started %d runs, want 1", snap.Warmed)
	}
	if n := len(e2.programs); n != 1 {
		t.Errorf("warm-start engine holds %d programs, want 1", n)
	}
	assertSameRun(t, outs[2], warm)
}

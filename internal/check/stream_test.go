package check

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/evstream"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRecordStream: the stream a finding carries must be a faithful,
// decodable recording of the failing spec's run — same header, same
// event count as a plain re-simulation — so violation cursors index it.
func TestRecordStream(t *testing.T) {
	dir := t.TempDir()
	v := &validator{opts: Options{
		Insts: 2_000, Warmup: 500, StreamDir: dir,
	}.withDefaults()}
	spec := sim.Spec{Bench: "gcc", Scheme: core.PosSel, Over: sim.Overrides{Check: core.CheckFull}}
	const seed = 7

	path, err := v.recordStream(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("stream written to %s, want directory %s", path, dir)
	}
	if base := filepath.Base(path); strings.ContainsAny(base, " []") || !strings.HasSuffix(base, "-seed7.evs") {
		t.Errorf("stream name %q not a sanitized -seed7.evs slug", base)
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := evstream.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if h := d.Header(); h.Spec != spec.String() || h.Seed != seed {
		t.Fatalf("stream header %+v does not identify the run %s seed %d", h, spec, seed)
	}
	var events int64
	for {
		_, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events++
	}

	// The recording must retrace the run exactly: its event count is the
	// machine's own, which is the coordinate system violation cursors
	// live in.
	prof, err := workload.ByName(spec.Bench)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(spec.Config(sim.Options{Insts: v.opts.Insts, Warmup: v.opts.Warmup}), gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if want := m.EventCount(); events != want {
		t.Errorf("stream holds %d events, the run emitted %d", events, want)
	}
	if events == 0 {
		t.Error("recorded stream holds no events")
	}
}

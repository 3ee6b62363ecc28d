package evstream

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workload"
)

// recordRun simulates one short run with a Recorder attached and
// returns the encoded stream plus the events as the sink saw them.
func recordRun(t testing.TB, cfg core.Config, seed int64) ([]byte, []core.PipeEvent) {
	t.Helper()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, Header{Spec: "test", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var seen []core.PipeEvent
	m.SetSink(core.SinkFunc(func(ev core.PipeEvent) {
		rec.Event(ev)
		seen = append(seen, ev)
	}))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != int64(len(seen)) {
		t.Fatalf("recorder counted %d events, sink saw %d", rec.Count(), len(seen))
	}
	return buf.Bytes(), seen
}

func testConfig(scheme core.Scheme) core.Config {
	cfg := core.Config4Wide()
	cfg.Scheme = scheme
	cfg.Warmup = 500
	cfg.MaxInsts = 2_000
	return cfg
}

// TestRoundTrip: every event of a simulated run decodes back exactly —
// cycle, sequence, kind, and the PC/class payload on fetch and
// dispatch records.
func TestRoundTrip(t *testing.T) {
	for _, scheme := range []core.Scheme{core.PosSel, core.TkSel, core.SerialVerify} {
		blob, want := recordRun(t, testConfig(scheme), 1)
		d, err := NewReader(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if h := d.Header(); h.Spec != "test" || h.Seed != 1 {
			t.Fatalf("header round-trip: %+v", h)
		}
		var got []core.PipeEvent
		for {
			ev, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ev)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: decoded %d events, recorded %d", scheme, len(got), len(want))
		}
		for i := range want {
			w := want[i]
			if w.Kind != core.EvFetch && w.Kind != core.EvDispatch {
				// Only fetch/dispatch records carry PC and class.
				w.PC, w.Class = 0, 0
			}
			if got[i] != w {
				t.Fatalf("%v: event %d decoded as %+v, recorded %+v", scheme, i, got[i], w)
			}
		}
	}
}

// TestEventDensity pins the format's compactness target: at most six
// bytes per event averaged over a real run.
func TestEventDensity(t *testing.T) {
	blob, seen := recordRun(t, testConfig(core.PosSel), 1)
	if len(seen) == 0 {
		t.Fatal("run emitted no events")
	}
	if perEvent := float64(len(blob)) / float64(len(seen)); perEvent > 6 {
		t.Errorf("stream averages %.2f bytes/event, want <= 6", perEvent)
	}
}

// TestSeekCycle: seeking lands on the first event at or past the
// target, and seeking past the end is a clear error, not a panic.
func TestSeekCycle(t *testing.T) {
	blob, seen := recordRun(t, testConfig(core.PosSel), 1)
	mid := seen[len(seen)/2].Cycle
	d, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := d.SeekCycle(mid)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cycle < mid {
		t.Errorf("seek to cycle %d landed on cycle %d", mid, ev.Cycle)
	}
	for _, s := range seen {
		if s.Cycle >= mid {
			if ev != s {
				t.Errorf("seek to cycle %d returned %+v, first recorded event there is %+v", mid, ev, s)
			}
			break
		}
	}

	d2, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	last := seen[len(seen)-1].Cycle
	if _, err := d2.SeekCycle(last + 1); !errors.Is(err, ErrPastEnd) {
		t.Errorf("seek past end returned %v, want ErrPastEnd", err)
	}
}

// TestDecoderRejects pins the validation surface: bad magic, reserved
// bits, oversized frames and truncation all error cleanly.
func TestDecoderRejects(t *testing.T) {
	if _, err := NewReader(strings.NewReader("SRTRACE1")); err == nil {
		t.Error("reader accepted a trace-file magic")
	}
	mk := func(extra ...byte) io.Reader {
		var buf bytes.Buffer
		rec, err := NewRecorder(&buf, Header{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		buf.Write(extra)
		return bytes.NewReader(buf.Bytes())
	}
	cases := map[string][]byte{
		"reserved bit 6":       {evReserved | byte(core.EvIssue)},
		"reserved cycle code":  {cycReserved << evCycShift},
		"unknown control":      {0xFF},
		"spurious PC flag":     {evHasPC | byte(core.EvIssue), 0},
		"missing PC flag":      {byte(core.EvFetch), 0},
		"truncated seq delta":  {byte(core.EvIssue)},
		"control record":       {ctlBit | 0x01, 0x00, 0x05, 'a', 'b'},
		"bad event class":      {evHasPC | byte(core.EvFetch), 0, 0, byte(isa.NumClasses)},
		"cycle delta overflow": {cycVarint << evCycShift, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for name, raw := range cases {
		d, err := NewReader(mk(raw...))
		if err != nil {
			t.Fatalf("%s: header rejected: %v", name, err)
		}
		if _, err := d.Next(); err == nil || err == io.EOF {
			t.Errorf("%s: decoder accepted the corrupt record (err=%v)", name, err)
		}
	}
}

// TestRecorderSticky: a failing writer latches; later events are
// dropped without further writes and Flush reports the first error.
func TestRecorderSticky(t *testing.T) {
	rec, err := NewRecorder(&limitWriter{n: len(magic) + 2 + pageSize}, Header{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*pageSize; i++ {
		rec.Event(core.PipeEvent{Cycle: int64(i), Seq: int64(i), Kind: core.EvIssue})
	}
	if rec.Err() == nil {
		t.Fatal("recorder never latched the write failure")
	}
	if err := rec.Flush(); err == nil {
		t.Fatal("flush reported success after a write failure")
	}
}

type limitWriter struct{ n int }

func (w *limitWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRecordingZeroAlloc proves the sink property the escape gate
// enforces statically: steady-state recording does not allocate.
func TestRecordingZeroAlloc(t *testing.T) {
	rec, err := NewRecorder(io.Discard, Header{})
	if err != nil {
		t.Fatal(err)
	}
	ev := core.PipeEvent{Cycle: 1, Seq: 1, PC: 0x1000, Class: isa.Load, Kind: core.EvFetch}
	// Warm the page once before measuring.
	rec.Event(ev)
	avg := testing.AllocsPerRun(10_000, func() {
		ev.Cycle++
		ev.Seq++
		rec.Event(ev)
	})
	if avg != 0 {
		t.Errorf("recording allocates %.2f allocs/op, want 0", avg)
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
}

// BenchmarkRecorderSteadyState is the benchguard-gated cost of one
// recorded event; it must report 0 allocs/op.
func BenchmarkRecorderSteadyState(b *testing.B) {
	rec, err := NewRecorder(io.Discard, Header{})
	if err != nil {
		b.Fatal(err)
	}
	ev := core.PipeEvent{PC: 0x1000, Class: isa.Load, Kind: core.EvFetch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Cycle = int64(i >> 3)
		ev.Seq = int64(i)
		rec.Event(ev)
	}
	if rec.Err() != nil {
		b.Fatal(rec.Err())
	}
}

package evstream

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

// validStreamBytes builds a small well-formed stream — events across
// cycle-delta shapes — for the seed corpus.
func validStreamBytes(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, Header{Spec: "fuzz", Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	events := []core.PipeEvent{
		{Cycle: 1, Seq: 0, PC: 0x400000, Class: isa.IntALU, Kind: core.EvFetch},
		{Cycle: 1, Seq: 0, PC: 0x400000, Class: isa.IntALU, Kind: core.EvDispatch},
		{Cycle: 2, Seq: 0, Kind: core.EvIssue},
		{Cycle: 9, Seq: 0, Kind: core.EvComplete},
		{Cycle: 9, Seq: 1, Kind: core.EvReplay},
		{Cycle: 10, Seq: 1, Kind: core.EvSquash},
		{Cycle: 11, Seq: 0, Kind: core.EvRetire},
	}
	for _, ev := range events {
		rec.Event(ev)
	}
	if err := rec.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEvstreamDecoder feeds arbitrary bytes to the stream decoder. The
// contract under attack: truncated pages, delta overflow, reserved
// bits and control records must all surface as errors —
// never a panic, never an out-of-range event, never unbounded output
// from bounded input, and errors must stay sticky.
func FuzzEvstreamDecoder(f *testing.F) {
	valid := validStreamBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                           // truncated final record
	f.Add(valid[:len(magic)+1])                           // truncated header frame
	f.Add([]byte("SREVENT2\x00\x00"))                     // wrong version magic
	f.Add([]byte{})                                       // empty file
	f.Add(append(append([]byte{}, valid...), 0xC3, 0xFF)) // trailing garbage
	// Cycle-delta overflow: a near-2^64 uvarint after a varint-coded
	// cycle byte.
	overflow := append(append([]byte{}, valid...),
		cycVarint<<evCycShift, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	f.Add(overflow)
	// A control record: bit 7 is reserved with none defined, so the
	// decoder must reject this byte rather than skip a payload.
	f.Add(append(append([]byte{}, valid...),
		ctlBit|0x01, 0x05, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Every record consumes at least one byte of input.
		maxRecords := len(data)
		n := 0
		var lastCycle int64
		for {
			ev, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if _, err2 := d.Next(); err2 == nil {
					t.Fatal("Next succeeded after a decode error")
				}
				break
			}
			if ev.Kind >= 8 {
				t.Fatalf("decoder returned out-of-range event kind %d", ev.Kind)
			}
			if ev.Class >= isa.NumClasses {
				t.Fatalf("decoder returned out-of-range class %d", ev.Class)
			}
			if ev.Cycle < lastCycle {
				t.Fatalf("event cycles went backwards: %d after %d", ev.Cycle, lastCycle)
			}
			lastCycle = ev.Cycle
			n++
			if n > maxRecords {
				t.Fatalf("decoded %d records from %d input bytes", n, len(data))
			}
		}
	})
}

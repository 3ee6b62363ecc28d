package trace

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/isa"
)

// validTraceBytes builds a small well-formed trace for the seed corpus.
func validTraceBytes(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	prog := []isa.Inst{
		{Seq: 0, PC: 0x400000, Class: isa.IntALU, Src1: -1, Src2: -1},
		{Seq: 1, PC: 0x400004, Class: isa.Load, Src1: 0, Src2: -1, Addr: 0x10000, ValueRepeat: true},
		{Seq: 2, PC: 0x400008, Class: isa.Store, Src1: 1, Src2: 0, Addr: 0x10040},
		{Seq: 3, PC: 0x40000c, Class: isa.Branch, Src1: 2, Src2: -1, Taken: true, Target: 0x400000},
	}
	for _, in := range prog {
		if err := w.Write(in); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceReader feeds arbitrary bytes to the trace decoder. The
// contract under attack: malformed, corrupted or truncated input must
// surface as an error — never a panic, never an invalid instruction,
// and never an unbounded number of records from a bounded input.
func FuzzTraceReader(f *testing.F) {
	valid := validTraceBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                           // truncated final record
	f.Add(valid[:len(magic)+1])                           // truncated first record
	f.Add([]byte("SRTRACE2\x00\x00"))                     // wrong version magic
	f.Add([]byte{})                                       // empty file
	f.Add(append(append([]byte{}, valid...), 0xff, 0xff)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Each record consumes at least two bytes, so a decoded stream
		// can never outnumber the input's bytes.
		maxRecords := len(data)
		n := 0
		for {
			in, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				// Errors must be sticky: a broken stream stays broken.
				if _, err2 := r.Read(); err2 == nil {
					t.Fatal("Read succeeded after a decode error")
				}
				break
			}
			if verr := in.Validate(); verr != nil {
				t.Fatalf("decoder returned invalid instruction %+v: %v", in, verr)
			}
			if in.Seq != int64(n) {
				t.Fatalf("sequence not dense: record %d has seq %d", n, in.Seq)
			}
			n++
			if n > maxRecords {
				t.Fatalf("decoded %d records from %d input bytes", n, len(data))
			}
		}
	})
}

// FuzzTraceRoundTrip drives Writer->Reader with generator-shaped
// instructions derived from the fuzz input and asserts exact recovery.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(12))
	f.Add(int64(99), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		n := int(nRaw)%64 + 1
		prog := make([]isa.Inst, n)
		rng := seed
		next := func() uint64 {
			// xorshift: cheap deterministic stream from the fuzz seed.
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return uint64(rng)
		}
		for i := range prog {
			in := isa.Inst{Seq: int64(i), PC: 0x400000 + next()%4096*4, Src1: -1, Src2: -1}
			switch next() % 5 {
			case 0:
				in.Class = isa.Load
				in.Addr = 0x10000 + next()%65536
				in.ValueRepeat = next()%2 == 0
			case 1:
				in.Class = isa.Store
				in.Addr = 0x10000 + next()%65536
			case 2:
				in.Class = isa.Branch
				in.Taken = next()%2 == 0
				if next()%2 == 0 {
					in.Target = 0x400000 + next()%4096*4
				}
			default:
				in.Class = isa.IntALU
			}
			if i > 0 && next()%2 == 0 {
				in.Src1 = int64(i) - 1 - int64(next()%uint64(i))
				if in.Src1 < 0 {
					in.Src1 = -1
				}
			}
			prog[i] = in
		}

		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range prog {
			if err := w.Write(in); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(prog) {
			t.Fatalf("round trip length %d != %d", len(got), len(prog))
		}
		for i := range prog {
			if got[i] != prog[i] {
				t.Fatalf("record %d: %+v round-tripped to %+v", i, prog[i], got[i])
			}
		}
	})
}

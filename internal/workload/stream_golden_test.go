package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
)

var updateStreams = flag.Bool("update-streams", false,
	"rewrite testdata/streams.golden with the current generator's output")

// Stream golden parameters: every profile at each seed, hashed over the
// first streamGoldenInsts instructions.
const streamGoldenInsts = 200_000

var streamGoldenSeeds = []int64{1, 2, 3}

// hashInst feeds every field of in to h in a fixed little-endian
// layout, so any change to any field of any instruction changes the
// digest.
func hashInst(h hash.Hash, buf *[51]byte, in isa.Inst) {
	b := buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(in.Seq))
	binary.LittleEndian.PutUint64(b[8:], in.PC)
	b[16] = byte(in.Class)
	binary.LittleEndian.PutUint64(b[17:], uint64(in.Src1))
	binary.LittleEndian.PutUint64(b[25:], uint64(in.Src2))
	binary.LittleEndian.PutUint64(b[33:], in.Addr)
	b[41] = boolByte(in.ValueRepeat)
	b[42] = boolByte(in.Taken)
	binary.LittleEndian.PutUint64(b[43:], in.Target)
	h.Write(b)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// streamDigest returns the SHA-256 of the first n instructions of s.
func streamDigest(s Stream, n int) string {
	h := sha256.New()
	var buf [51]byte
	for i := 0; i < n; i++ {
		hashInst(h, &buf, s.Next())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStreamGolden pins the dynamic instruction stream of every
// calibrated profile, bit for bit, against digests recorded from a
// known-good generator. Any refactor of the generator must leave these
// unchanged; regenerate only for an intended change to the workload
// model (-update-streams).
func TestStreamGolden(t *testing.T) {
	var lines []string
	for _, p := range All() {
		for _, seed := range streamGoldenSeeds {
			g, err := NewGenerator(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s seed=%d %s", p.Name, seed, streamDigest(g, streamGoldenInsts)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "streams.golden")
	if *updateStreams {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate on a KNOWN-GOOD generator with -update-streams): %v", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d streams, test produced %d", len(wantLines), len(lines))
	}
	for i, l := range lines {
		if l != wantLines[i] {
			t.Errorf("stream diverged from golden:\n  want %s\n  got  %s", wantLines[i], l)
		}
	}
}

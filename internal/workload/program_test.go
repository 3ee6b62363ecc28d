package workload

import (
	"sync"
	"testing"
	"unsafe"
)

// TestProgramShared walks one compiled program from many goroutines at
// once (run it under -race): the program must be read-only to its
// generators, and every walk must equal a privately built generator's
// stream.
func TestProgramShared(t *testing.T) {
	const (
		walkers = 8
		n       = 50_000
		seed    = 3
	)
	prof, _ := ByName("gcc")
	g, err := NewGenerator(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := streamDigest(g, n)

	p, err := Compile(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, walkers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = streamDigest(p.NewGenerator(), n)
		}()
	}
	wg.Wait()
	for w, d := range got {
		if d != want {
			t.Errorf("walker %d: stream digest %s, want %s", w, d, want)
		}
	}
}

// TestStaticSlotSize pins the compiled slot layout: the calibration walk
// and every generator stream through the slots, so they stay small.
func TestStaticSlotSize(t *testing.T) {
	if sz := unsafe.Sizeof(staticSlot{}); sz > 16 {
		t.Fatalf("staticSlot is %d bytes, want at most 16", sz)
	}
}

// Benchmark results land in package-level sinks so the compiler cannot
// drop the measured calls.
var (
	benchProgram   *Program
	benchGenerator *Generator
)

// BenchmarkCompile measures the per-(profile, seed) cost the batch
// engine pays once per benchmark: static code plus calibration walk.
func BenchmarkCompile(b *testing.B) {
	prof, _ := ByName("gcc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := Compile(prof, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchProgram = p
	}
}

// BenchmarkProgramNewGenerator measures the per-run cost of starting a
// walk of an already compiled program.
func BenchmarkProgramNewGenerator(b *testing.B) {
	prof, _ := ByName("gcc")
	p, err := Compile(prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGenerator = p.NewGenerator()
	}
}

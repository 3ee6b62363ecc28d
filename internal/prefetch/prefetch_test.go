package prefetch

import "testing"

func TestKindNamesRoundTrip(t *testing.T) {
	names := KindNames()
	if len(names) != 2 {
		t.Fatalf("KindNames() = %v", names)
	}
	for i, n := range names {
		k, err := ParseKind(n)
		if err != nil || k != Kind(i) {
			t.Errorf("ParseKind(%q) = %v, %v", n, k, err)
		}
		if Kind(i).String() != n {
			t.Errorf("Kind(%d).String() = %q, want %q", i, Kind(i), n)
		}
	}
	if k, err := ParseKind("STRIDE"); err != nil || k != KindStride {
		t.Errorf("ParseKind is not case-insensitive: %v, %v", k, err)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestNewOffIsNil(t *testing.T) {
	if p := New(Config{}); p != nil {
		t.Fatal("New(KindOff) should return nil")
	}
}

func TestNewFillsDefaults(t *testing.T) {
	p := New(Config{Kind: KindStride})
	if got, want := p.Config(), DefaultStride(); got != want {
		t.Fatalf("default-filled config = %+v, want %+v", got, want)
	}
}

func TestNewRejectsNonPowerOfTwo(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: KindStride, Entries: 100},
		{Kind: KindStride, MarkEntries: 7},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// observeAll trains p at one pc over the address sequence and returns
// every fired prefetch address.
func observeAll(p *Prefetcher, pc uint64, addrs []uint64) []uint64 {
	var fired []uint64
	for _, a := range addrs {
		if pa, ok := p.Observe(pc, a); ok {
			fired = append(fired, pa)
		}
	}
	return fired
}

func TestStrideLearnsAndFires(t *testing.T) {
	p := New(Config{Kind: KindStride}) // MinConfidence 2, Distance 2
	// Allocation, stride capture, then two agreeing deltas to reach the
	// firing confidence: the fourth observation is the first prefetch.
	addrs := []uint64{0x1000, 0x1040, 0x1080, 0x10c0, 0x1100}
	fired := observeAll(p, 0x400100, addrs)
	if len(fired) != 2 {
		t.Fatalf("fired %d prefetches (%#x), want 2", len(fired), fired)
	}
	if fired[0] != 0x10c0+2*0x40 {
		t.Errorf("first prefetch %#x, want %#x", fired[0], 0x10c0+2*0x40)
	}
	obs, fires := p.Stats()
	if obs != 5 || fires != 2 {
		t.Errorf("Stats() = %d, %d, want 5, 2", obs, fires)
	}
}

func TestNegativeStrideFiresBelow(t *testing.T) {
	p := New(Config{Kind: KindStride})
	fired := observeAll(p, 0x400200, []uint64{0x2000, 0x1fc0, 0x1f80, 0x1f40})
	if len(fired) != 1 || fired[0] != 0x1f40-2*0x40 {
		t.Fatalf("descending stream fired %#x, want [%#x]", fired, 0x1f40-2*0x40)
	}
}

func TestStrideRetrainsAfterDisagreement(t *testing.T) {
	p := New(Config{Kind: KindStride})
	pc := uint64(0x400300)
	observeAll(p, pc, []uint64{0x1000, 0x1040, 0x1080, 0x10c0}) // confident at +64
	// A new +8 pattern: confidence must drain before the stride
	// retrains, and the prefetcher must go quiet meanwhile.
	quiet := observeAll(p, pc, []uint64{0x5000, 0x5008, 0x5010})
	if len(quiet) != 0 {
		t.Fatalf("prefetcher fired %#x while retraining", quiet)
	}
	fired := observeAll(p, pc, []uint64{0x5018, 0x5020, 0x5028, 0x5030})
	if len(fired) == 0 || fired[len(fired)-1] != 0x5030+2*8 {
		t.Fatalf("retrained stream fired %#x, want tail %#x", fired, 0x5030+2*8)
	}
}

func TestWrapAndZeroRejected(t *testing.T) {
	p := New(Config{Kind: KindStride})
	// Descending toward zero: the prefetch address reaches exactly 0,
	// then wraps below it; both must be suppressed.
	pc := uint64(0x400400)
	var addrs []uint64
	for a := uint64(0x280); ; a -= 0x40 {
		addrs = append(addrs, a)
		if a == 0x40 {
			break
		}
	}
	for _, pa := range observeAll(p, pc, addrs) {
		if pa == 0 || pa >= 0x280 {
			t.Errorf("descending stream fired invalid address %#x", pa)
		}
	}
	// Ascending toward the top of the address space: a wrapped-past-max
	// prefetch must be suppressed.
	pc2 := uint64(0x400500)
	top := ^uint64(0) - 0x1ff
	var up []uint64
	for i := uint64(0); i < 8; i++ {
		up = append(up, top+i*0x40)
	}
	for _, pa := range observeAll(p, pc2, up) {
		if pa <= top {
			t.Errorf("ascending stream fired wrapped address %#x", pa)
		}
	}
}

func TestTagConflictEvicts(t *testing.T) {
	cfg := DefaultStride()
	p := New(cfg)
	word := uint64(5)
	pcA := word << 2
	pcB := (word + uint64(cfg.Entries)) << 2                     // same index, different tag
	observeAll(p, pcA, []uint64{0x1000, 0x1040, 0x1080, 0x10c0}) // confident
	p.Observe(pcB, 0x9000)                                       // evicts A
	// A must retrain from scratch: no fire on its next three accesses.
	if fired := observeAll(p, pcA, []uint64{0x1100, 0x1140, 0x1180}); len(fired) != 0 {
		t.Fatalf("evicted entry fired %#x without retraining", fired)
	}
}

func TestMarkAccounting(t *testing.T) {
	p := New(Config{Kind: KindStride})
	p.MarkIssued(0x40)
	if !p.DemandUse(0x40) {
		t.Error("marked line not reported as prefetched")
	}
	if p.DemandUse(0x40) {
		t.Error("mark consumed twice")
	}
	if p.DemandUse(0x80) {
		t.Error("unmarked line reported as prefetched")
	}
	// A conflicting mark overwrites the older one.
	la := uint64(0x100)
	p.MarkIssued(la)
	p.MarkIssued(la + uint64(p.cfg.MarkEntries))
	if p.DemandUse(la) {
		t.Error("overwritten mark survived")
	}
	if !p.DemandUse(la + uint64(p.cfg.MarkEntries)) {
		t.Error("overwriting mark missing")
	}
}

// TestInertMinConfidence pins the zero-coverage configuration the
// metamorphic suite leans on: a firing threshold above the confidence
// saturation point can never be reached, so the prefetcher observes
// but never fires.
func TestInertMinConfidence(t *testing.T) {
	cfg := DefaultStride()
	cfg.MinConfidence = MaxConfidence + 1
	p := New(cfg)
	var addrs []uint64
	for i := uint64(0); i < 200; i++ {
		addrs = append(addrs, 0x1000+i*0x40)
	}
	if fired := observeAll(p, 0x400600, addrs); len(fired) != 0 {
		t.Fatalf("inert prefetcher fired %d times", len(fired))
	}
	if _, fires := p.Stats(); fires != 0 {
		t.Fatalf("inert prefetcher counted %d fires", fires)
	}
}

func TestResetClearsEverything(t *testing.T) {
	p := New(Config{Kind: KindStride})
	observeAll(p, 0x400700, []uint64{0x1000, 0x1040, 0x1080, 0x10c0})
	p.MarkIssued(0x40)
	p.Reset()
	if obs, fires := p.Stats(); obs != 0 || fires != 0 {
		t.Fatalf("Stats() after Reset = %d, %d", obs, fires)
	}
	if p.DemandUse(0x40) {
		t.Error("mark survived Reset")
	}
	// The stride table must retrain from scratch.
	if fired := observeAll(p, 0x400700, []uint64{0x1100, 0x1140, 0x1180}); len(fired) != 0 {
		t.Fatalf("table state survived Reset: fired %#x", fired)
	}
}

package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestAllProfilesValidate(t *testing.T) {
	if len(All()) != 12 {
		t.Fatalf("suite has %d profiles, want 12", len(All()))
	}
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Benchmarks {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("ByName(%q) returned %q", name, p.Name)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted unknown benchmark")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base, _ := ByName("gcc")
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"mix over 1", func(p *Profile) { p.LoadFrac = 0.9; p.StoreFrac = 0.3 }},
		{"negative frac", func(p *Profile) { p.ColdFrac = -0.1 }},
		{"cold+warm over 1", func(p *Profile) { p.ColdFrac = 0.6; p.WarmFrac = 0.6 }},
		{"dep mean under 1", func(p *Profile) { p.DepMean = 0.5 }},
		{"tiny static code", func(p *Profile) { p.StaticInsts = 3 }},
		{"huge static code", func(p *Profile) { p.StaticInsts = maxStaticInsts + 1 }},
		{"zero hot lines", func(p *Profile) { p.HotLines = 0 }},
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("gzip")
	g1, err := NewGenerator(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(p, 7)
	a := g1.Generate(5000)
	b := g2.Generate(5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	g3, _ := NewGenerator(p, 8)
	c := g3.Generate(5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorInstructionsValid(t *testing.T) {
	for _, name := range Benchmarks {
		p, _ := ByName(name)
		g, err := NewGenerator(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(-1)
		for _, in := range g.Generate(20000) {
			if err := in.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if in.Seq != prev+1 {
				t.Fatalf("%s: sequence gap %d -> %d", name, prev, in.Seq)
			}
			prev = in.Seq
		}
	}
}

func TestGeneratorMixMatchesProfile(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "eon"} {
		p, _ := ByName(name)
		g, _ := NewGenerator(p, 3)
		counts := map[isa.Class]int{}
		n := 200000
		for i := 0; i < n; i++ {
			counts[g.Next().Class]++
		}
		loadFrac := float64(counts[isa.Load]) / float64(n)
		storeFrac := float64(counts[isa.Store]) / float64(n)
		branchFrac := float64(counts[isa.Branch]) / float64(n)
		// Loopy control flow visits static sites very unevenly, so the
		// dynamic mix deviates from the static profile; it must still be
		// recognizably the profile's.
		if math.Abs(loadFrac-p.LoadFrac) > 0.12 {
			t.Errorf("%s: load frac %.3f vs profile %.3f", name, loadFrac, p.LoadFrac)
		}
		if math.Abs(storeFrac-p.StoreFrac) > 0.07 {
			t.Errorf("%s: store frac %.3f vs profile %.3f", name, storeFrac, p.StoreFrac)
		}
		if math.Abs(branchFrac-p.BranchFrac) > 0.07 {
			t.Errorf("%s: branch frac %.3f vs profile %.3f", name, branchFrac, p.BranchFrac)
		}
	}
}

func TestGeneratorDependencesPointBackwardToProducers(t *testing.T) {
	p, _ := ByName("vortex")
	g, _ := NewGenerator(p, 11)
	insts := g.Generate(50000)
	hasDest := map[int64]bool{}
	for _, in := range insts {
		for _, src := range []int64{in.Src1, in.Src2} {
			if src < 0 {
				continue
			}
			if src >= in.Seq {
				t.Fatalf("inst %d depends on %d (not strictly older)", in.Seq, src)
			}
			if !hasDest[src] {
				t.Fatalf("inst %d depends on %d which produces no value", in.Seq, src)
			}
		}
		if in.Class.HasDest() {
			hasDest[in.Seq] = true
		}
	}
}

func TestGeneratorPCsAreStablePerClass(t *testing.T) {
	p, _ := ByName("parser")
	g, _ := NewGenerator(p, 5)
	classAt := map[uint64]isa.Class{}
	for _, in := range g.Generate(100000) {
		if prev, ok := classAt[in.PC]; ok && prev != in.Class {
			t.Fatalf("PC %#x changed class %v -> %v", in.PC, prev, in.Class)
		}
		classAt[in.PC] = in.Class
	}
	if len(classAt) < 100 {
		t.Fatalf("only %d static sites visited; control flow too narrow", len(classAt))
	}
}

func TestGeneratorMissConcentration(t *testing.T) {
	// perl's profile concentrates cold/warm references on very few
	// sites; mcf spreads them. Verify the generator honors that, because
	// Figure 9 and Table 6 depend on it.
	// Metric: what fraction of the visited static load sites ever issue a
	// cold/warm (potentially missing) reference. perl concentrates these
	// on very few sites; mcf spreads them across most of its loads.
	spread := func(name string) float64 {
		p, _ := ByName(name)
		g, _ := NewGenerator(p, 9)
		loadSites := map[uint64]bool{}
		coldWarmSites := map[uint64]bool{}
		for i := 0; i < 300000; i++ {
			in := g.Next()
			if in.Class != isa.Load {
				continue
			}
			loadSites[in.PC] = true
			if in.Addr >= warmBase {
				coldWarmSites[in.PC] = true
			}
		}
		if len(loadSites) == 0 {
			return 0
		}
		return float64(len(coldWarmSites)) / float64(len(loadSites))
	}
	perl := spread("perl")
	mcf := spread("mcf")
	if perl >= mcf/2 {
		t.Fatalf("perl miss-site spread %.3f should be well below mcf %.3f", perl, mcf)
	}
}

func TestGeneratorAliasing(t *testing.T) {
	p, _ := ByName("bzip")
	g, _ := NewGenerator(p, 13)
	storeAddrs := map[uint64]bool{}
	aliased, loads := 0, 0
	for i := 0; i < 200000; i++ {
		in := g.Next()
		switch in.Class {
		case isa.Store:
			storeAddrs[in.Addr] = true
		case isa.Load:
			loads++
			if storeAddrs[in.Addr] {
				aliased++
			}
		}
	}
	if loads == 0 || aliased == 0 {
		t.Fatal("no aliased loads generated")
	}
}

func TestGeneratorColdStream(t *testing.T) {
	// mcf must emit a substantial cold stream (distinct, increasing line
	// addresses) — that's its defining behaviour.
	p, _ := ByName("mcf")
	g, _ := NewGenerator(p, 17)
	cold, loads := 0, 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Class == isa.Load {
			loads++
			if in.Addr >= coldBase {
				cold++
			}
		}
	}
	frac := float64(cold) / float64(loads)
	if frac < 0.08 {
		t.Fatalf("mcf cold fraction %.3f too small", frac)
	}
}

// Property: any valid profile yields a generator whose first instructions
// validate and whose branches carry targets inside the text segment.
func TestQuickGeneratorStructural(t *testing.T) {
	base, _ := ByName("gap")
	f := func(seed int64, loadPct, branchPct uint8) bool {
		p := base
		p.LoadFrac = float64(loadPct%40) / 100
		p.BranchFrac = float64(branchPct%20) / 100
		g, err := NewGenerator(p, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			in := g.Next()
			if in.Validate() != nil {
				return false
			}
			if in.Class == isa.Branch && in.Taken {
				if in.Target < codeBase || in.Target >= codeBase+uint64(p.StaticInsts)*4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

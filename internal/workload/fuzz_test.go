package workload

import (
	"testing"
)

// FuzzProfile throws arbitrary profile parameters at the generator.
// The contract: any profile accepted by Validate must produce an
// endless, structurally valid instruction stream — dense sequence
// numbers, dependences strictly in the past, in-range classes, and
// addresses/outcomes consistent with each class — for any seed. The
// generator must never panic, even on adversarial parameter corners
// (fractions at 0 or 1, minimum footprints, tiny hot sets). A compiled
// program must also be reusable: each of two walks of one Compile must
// equal the stream NewGenerator builds on its own.
func FuzzProfile(f *testing.F) {
	// Seed corpus: a realistic profile, plus corner cases.
	f.Add(0.3, 0.15, 0.15, 0.0, 0.0, 6.0, 0.4, 0.1, 0.2, 0.1, 0.8, 0.05, 0.3, 0.7, 200, 64, 512, int64(1))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 16, 1, 1, int64(42))
	f.Add(0.24, 0.24, 0.24, 0.24, 0.03, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 16, 1, 1, int64(-7))
	// Loads but no cold/warm data: the calibration walk returns early.
	f.Add(0.4, 0.1, 0.2, 0.0, 0.0, 3.0, 0.5, 0.0, 0.0, 0.1, 0.9, 0.05, 0.1, 0.5, 0, 32, 256, int64(9))

	f.Fuzz(func(t *testing.T,
		loadFrac, storeFrac, branchFrac, fpFrac, mulDivFrac,
		depMean, twoSrcFrac, coldFrac, warmFrac,
		missyPCFrac, missyBias, aliasFrac, branchRandFrac, addrReadyFrac float64,
		staticInsts, hotLines, warmLines int, seed int64) {

		// Bound the footprint parameters so a fuzz iteration stays fast;
		// the fractions are taken as-is so Validate sees raw input.
		p := Profile{
			Name:           "fuzz",
			LoadFrac:       loadFrac,
			StoreFrac:      storeFrac,
			BranchFrac:     branchFrac,
			FPFrac:         fpFrac,
			MulDivFrac:     mulDivFrac,
			DepMean:        depMean,
			TwoSrcFrac:     twoSrcFrac,
			ColdFrac:       coldFrac,
			WarmFrac:       warmFrac,
			MissyPCFrac:    missyPCFrac,
			MissyBias:      missyBias,
			AliasFrac:      aliasFrac,
			BranchRandFrac: branchRandFrac,
			AddrReadyFrac:  addrReadyFrac,
			StaticInsts:    16 + abs(staticInsts)%4096,
			HotLines:       1 + abs(hotLines)%2048,
			WarmLines:      1 + abs(warmLines)%16384,
		}
		if p.Validate() != nil {
			// Out-of-range parameters must be rejected, not limped with;
			// NewGenerator has to agree with Validate.
			if g, err := NewGenerator(p, seed); err == nil && g != nil {
				t.Fatal("NewGenerator accepted a profile Validate rejects")
			}
			return
		}
		g, err := NewGenerator(p, seed)
		if err != nil {
			t.Fatalf("valid profile rejected: %v", err)
		}
		prog, err := Compile(p, seed)
		if err != nil {
			t.Fatalf("valid profile rejected by Compile: %v", err)
		}
		const walk = 2000
		ref, _ := NewGenerator(p, seed)
		want := ref.Generate(walk)
		for w := 0; w < 2; w++ {
			for i, in := range prog.NewGenerator().Generate(walk) {
				if in != want[i] {
					t.Fatalf("walk %d of a compiled program diverges at inst %d: %+v vs %+v", w, i, in, want[i])
				}
			}
		}
		const n = 3000
		for i := int64(0); i < n; i++ {
			in := g.Next()
			if in.Seq != i {
				t.Fatalf("sequence not dense: inst %d has seq %d", i, in.Seq)
			}
			if err := in.Validate(); err != nil {
				t.Fatalf("generated invalid instruction: %v", err)
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

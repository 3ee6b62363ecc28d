package workload

import (
	"math/rand"

	"repro/internal/isa"
)

// codeBase is where the synthetic program's text segment lives.
const codeBase = 0x0040_0000

// staticSlot is one instruction of the synthetic program's static code.
// The dynamic stream is produced by walking these slots under sampled
// branch outcomes, so PCs, instruction classes, miss-proneness and
// branch biases are all stable per site — which is what PC-indexed
// predictors need to observe. A slot's PC is implied by its index
// (slotPC), which keeps the slot at 16 bytes.
type staticSlot struct {
	// takenBias is the probability this branch is taken.
	takenBias float64
	// target is the branch target's slot index; Profile.Validate
	// bounds StaticInsts so every index fits.
	target int32
	class  isa.Class
	// missy marks a load site as miss-prone (issues most cold/warm
	// references).
	missy bool
	// valueStable marks a load site with high value locality (its
	// loaded value usually repeats), the raw material for load value
	// prediction.
	valueStable bool
	// recurrent marks an integer ALU site as a loop-carried recurrence
	// (induction variable): each dynamic instance reads the previous
	// instance of the same site. Recurrences are what let an invalid
	// speculative wavefront propagate for hundreds of levels (Figure 3).
	recurrent bool
}

// slotPC is the address of static slot i.
func slotPC(i int) uint64 { return codeBase + uint64(i)*4 }

// buildStatic samples the static program skeleton for a profile.
func buildStatic(p Profile, rng *rand.Rand) []staticSlot {
	n := p.StaticInsts
	slots := make([]staticSlot, n)
	for i := range slots {
		s := &slots[i]
		r := rng.Float64()
		switch {
		case r < p.LoadFrac:
			s.class = isa.Load
			// Roughly 40% of static loads exhibit strong value locality
			// (Lipasti et al.); the rest only occasionally repeat. The
			// mark is a hash of the slot index so it does not perturb the
			// calibrated layout sampling.
			s.valueStable = (uint64(i)*0x9e3779b97f4a7c15)>>62 == 0
			// missy marks are assigned by the generator's calibration
			// pass (see Compile), which sizes the missy set so the
			// aggregate cold/warm mass lands on the profile target while
			// each missy site keeps a high per-site miss ratio.
		case r < p.LoadFrac+p.StoreFrac:
			s.class = isa.Store
		case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
			s.class = isa.Branch
			if rng.Float64() < p.BranchRandFrac {
				s.takenBias = 0.5
			} else if rng.Float64() < 0.6 {
				s.takenBias = 0.95 // loop back edge
			} else {
				s.takenBias = 0.05 // rarely taken guard
			}
			s.target = int32(sampleTarget(i, n, rng))
		case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac:
			if rng.Float64() < 0.6 {
				s.class = isa.FPALU
			} else {
				s.class = isa.FPMult
			}
		case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac+p.MulDivFrac:
			if rng.Float64() < 0.85 {
				s.class = isa.IntMult
			} else {
				s.class = isa.IntDiv
			}
		default:
			s.class = isa.IntALU
			s.recurrent = rng.Float64() < 0.10
		}
	}
	return slots
}

// sampleTarget picks a branch target: mostly short backward edges
// (loops), occasionally forward skips.
func sampleTarget(i, n int, rng *rand.Rand) int {
	span := 1 + rng.Intn(200)
	var t int
	if rng.Float64() < 0.8 {
		t = i - span // backward: loop
	} else {
		t = i + 1 + span // forward: skip
	}
	// Clamp into [0, n) avoiding a self-target, wrapping like a loop
	// around the program.
	t %= n
	if t < 0 {
		t += n
	}
	if t == i {
		t = (i + 1) % n
	}
	return t
}

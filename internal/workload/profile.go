// Package workload synthesizes deterministic instruction streams that
// stand in for the paper's SPEC CINT2000 Alpha binaries.
//
// The paper ran DEC-compiled Alpha binaries under an extended
// SimpleScalar; neither the binaries nor an Alpha front end is available
// here. What the replay study actually consumes from a workload is a
// small set of statistical properties: the instruction mix, the shape of
// data-dependence chains, the memory-reference locality that sets the
// load scheduling-miss rate, how concentrated misses are on few static
// loads (what makes them predictable), the store-to-load aliasing rate,
// and branch predictability. Each benchmark is therefore modeled as a
// Profile of those properties, calibrated so the per-benchmark miss
// rates and relative IPC land near the paper's Tables 4 and 5, and the
// generator expands a profile into a deterministic dynamic instruction
// stream with a realistic static-code skeleton (stable PCs, loops,
// biased branches).
package workload

import "fmt"

// Profile is the statistical model of one benchmark.
type Profile struct {
	// Name is the benchmark name as it appears in the paper's tables.
	Name string

	// Instruction mix: fractions of the dynamic stream. The remainder
	// after all listed classes is integer ALU work.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64 // split between FP ALU and FP multiply
	MulDivFrac float64 // integer multiply/divide

	// DepMean is the mean distance, in value-producing instructions,
	// between a consumer and the producer it reads: small values mean
	// long serial chains (low ILP), large values mean wide parallelism.
	DepMean float64
	// TwoSrcFrac is the fraction of instructions reading two register
	// sources rather than one.
	TwoSrcFrac float64

	// Memory locality: each data reference goes to the hot set (DL1
	// resident), the warm set (L2 resident), or a cold streaming region
	// (memory). ColdFrac+WarmFrac <= 1; the remainder is hot.
	ColdFrac float64
	WarmFrac float64
	// HotLines and WarmLines size the regions in cache lines.
	HotLines, WarmLines int

	// MissyPCFrac is the fraction of static load sites designated
	// "miss-prone"; MissyBias is the fraction of cold/warm references
	// issued by those sites. High bias with a small site fraction is
	// what makes scheduling misses predictable (paper §4.1); the sites
	// still hit more than half the time, which is what defeats purely
	// conservative scheduling (§5.4).
	MissyPCFrac float64
	MissyBias   float64

	// AliasFrac is the fraction of loads that read an address recently
	// stored to, the second scheduling-miss source (§2.2).
	AliasFrac float64

	// BranchRandFrac is the fraction of static branch sites with
	// data-dependent (unpredictable) outcomes; remaining sites are
	// strongly biased loop/guard branches.
	BranchRandFrac float64

	// AddrReadyFrac is the probability a load's address operand is
	// architecturally long-ready (stable base register) rather than a
	// recent producer; low values model pointer chasing (mcf).
	AddrReadyFrac float64

	// StaticInsts is the static code footprint in instructions; drives
	// IL1/BTB behaviour and the number of static load/branch sites.
	// Validate accepts 16 to 1<<20 (a 4 MB text segment).
	StaticInsts int
}

// maxStaticInsts bounds Profile.StaticInsts: a 4 MB text segment, far
// beyond any SPEC CINT2000 hot footprint, whose slot indices fit the
// compiled program's 32-bit branch targets.
const maxStaticInsts = 1 << 20

// Validate checks that the profile's fractions are sane.
func (p Profile) Validate() error {
	sum := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac + p.MulDivFrac
	if sum >= 1 {
		return fmt.Errorf("workload %s: class fractions sum to %.2f >= 1", p.Name, sum)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LoadFrac", p.LoadFrac}, {"StoreFrac", p.StoreFrac},
		{"BranchFrac", p.BranchFrac}, {"FPFrac", p.FPFrac},
		{"MulDivFrac", p.MulDivFrac}, {"ColdFrac", p.ColdFrac},
		{"WarmFrac", p.WarmFrac}, {"MissyPCFrac", p.MissyPCFrac},
		{"MissyBias", p.MissyBias}, {"AliasFrac", p.AliasFrac},
		{"BranchRandFrac", p.BranchRandFrac}, {"TwoSrcFrac", p.TwoSrcFrac},
		{"AddrReadyFrac", p.AddrReadyFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("workload %s: %s = %v out of [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.ColdFrac+p.WarmFrac > 1 {
		return fmt.Errorf("workload %s: cold+warm = %v > 1", p.Name, p.ColdFrac+p.WarmFrac)
	}
	if p.DepMean < 1 {
		return fmt.Errorf("workload %s: DepMean %v < 1", p.Name, p.DepMean)
	}
	if p.StaticInsts < 16 {
		return fmt.Errorf("workload %s: StaticInsts %d too small", p.Name, p.StaticInsts)
	}
	if p.StaticInsts > maxStaticInsts {
		return fmt.Errorf("workload %s: StaticInsts %d exceeds %d", p.Name, p.StaticInsts, maxStaticInsts)
	}
	if p.HotLines <= 0 || p.WarmLines <= 0 {
		return fmt.Errorf("workload %s: region sizes must be positive", p.Name)
	}
	return nil
}

// Benchmarks lists the paper's SPEC CINT2000 suite in table order.
var Benchmarks = []string{
	"bzip", "crafty", "eon", "gap", "gcc", "gzip",
	"mcf", "parser", "perl", "twolf", "vortex", "vpr",
}

// ByName returns the calibrated profile for one of the paper's
// benchmarks. Unknown names return an error.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Benchmarks)
}

// All returns the full calibrated suite in table order.
func All() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// profiles holds the calibrated models. Calibration targets (paper
// Tables 4 and 5, 4-wide): the per-benchmark ordering of load
// scheduling-miss rates (gap lowest ≈1.7% … mcf highest ≈27.6%) and of
// base IPC (mcf ≈0.71 … eon/vortex ≈2.1). Locality fractions were tuned
// against the simulator; see EXPERIMENTS.md for measured-vs-paper.
var profiles = []Profile{
	{
		Name: "bzip", LoadFrac: 0.26, StoreFrac: 0.09, BranchFrac: 0.11,
		FPFrac: 0.0, MulDivFrac: 0.01, DepMean: 4.4, TwoSrcFrac: 0.45,
		ColdFrac: 0.012, WarmFrac: 0.024, HotLines: 320, WarmLines: 3000,
		MissyPCFrac: 0.10, MissyBias: 0.92, AliasFrac: 0.015,
		BranchRandFrac: 0.08, AddrReadyFrac: 0.55, StaticInsts: 3000,
	},
	{
		Name: "crafty", LoadFrac: 0.29, StoreFrac: 0.07, BranchFrac: 0.11,
		FPFrac: 0.0, MulDivFrac: 0.01, DepMean: 7.0, TwoSrcFrac: 0.50,
		ColdFrac: 0.011, WarmFrac: 0.025, HotLines: 360, WarmLines: 2600,
		MissyPCFrac: 0.12, MissyBias: 0.90, AliasFrac: 0.012,
		BranchRandFrac: 0.030, AddrReadyFrac: 0.60, StaticInsts: 4500,
	},
	{
		Name: "eon", LoadFrac: 0.27, StoreFrac: 0.14, BranchFrac: 0.09,
		FPFrac: 0.08, MulDivFrac: 0.01, DepMean: 6.0, TwoSrcFrac: 0.50,
		ColdFrac: 0.013, WarmFrac: 0.028, HotLines: 360, WarmLines: 2400,
		MissyPCFrac: 0.10, MissyBias: 0.92, AliasFrac: 0.012,
		BranchRandFrac: 0.025, AddrReadyFrac: 0.60, StaticInsts: 4000,
	},
	{
		Name: "gap", LoadFrac: 0.24, StoreFrac: 0.08, BranchFrac: 0.10,
		FPFrac: 0.01, MulDivFrac: 0.02, DepMean: 4.6, TwoSrcFrac: 0.45,
		ColdFrac: 0.002, WarmFrac: 0.005, HotLines: 380, WarmLines: 2200,
		MissyPCFrac: 0.08, MissyBias: 0.94, AliasFrac: 0.008,
		BranchRandFrac: 0.05, AddrReadyFrac: 0.60, StaticInsts: 3500,
	},
	{
		Name: "gcc", LoadFrac: 0.25, StoreFrac: 0.11, BranchFrac: 0.14,
		FPFrac: 0.0, MulDivFrac: 0.01, DepMean: 2.5, TwoSrcFrac: 0.45,
		ColdFrac: 0.006, WarmFrac: 0.013, HotLines: 340, WarmLines: 2800,
		MissyPCFrac: 0.14, MissyBias: 0.88, AliasFrac: 0.010,
		BranchRandFrac: 0.120, AddrReadyFrac: 0.50, StaticInsts: 6000,
	},
	{
		Name: "gzip", LoadFrac: 0.22, StoreFrac: 0.08, BranchFrac: 0.12,
		FPFrac: 0.0, MulDivFrac: 0.01, DepMean: 5.8, TwoSrcFrac: 0.45,
		ColdFrac: 0.015, WarmFrac: 0.028, HotLines: 320, WarmLines: 2600,
		MissyPCFrac: 0.09, MissyBias: 0.93, AliasFrac: 0.014,
		BranchRandFrac: 0.06, AddrReadyFrac: 0.55, StaticInsts: 2500,
	},
	{
		Name: "mcf", LoadFrac: 0.31, StoreFrac: 0.09, BranchFrac: 0.12,
		FPFrac: 0.0, MulDivFrac: 0.01, DepMean: 3.6, TwoSrcFrac: 0.40,
		ColdFrac: 0.300, WarmFrac: 0.120, HotLines: 280, WarmLines: 3200,
		MissyPCFrac: 0.22, MissyBias: 0.80, AliasFrac: 0.010,
		BranchRandFrac: 0.10, AddrReadyFrac: 0.36, StaticInsts: 2000,
	},
	{
		Name: "parser", LoadFrac: 0.24, StoreFrac: 0.09, BranchFrac: 0.13,
		FPFrac: 0.0, MulDivFrac: 0.01, DepMean: 2.9, TwoSrcFrac: 0.45,
		ColdFrac: 0.020, WarmFrac: 0.034, HotLines: 300, WarmLines: 3000,
		MissyPCFrac: 0.15, MissyBias: 0.88, AliasFrac: 0.016,
		BranchRandFrac: 0.09, AddrReadyFrac: 0.40, StaticInsts: 4500,
	},
	{
		Name: "perl", LoadFrac: 0.26, StoreFrac: 0.11, BranchFrac: 0.13,
		FPFrac: 0.0, MulDivFrac: 0.01, DepMean: 2.0, TwoSrcFrac: 0.45,
		ColdFrac: 0.003, WarmFrac: 0.024, HotLines: 340, WarmLines: 2600,
		MissyPCFrac: 0.02, MissyBias: 0.97, AliasFrac: 0.004,
		BranchRandFrac: 0.100, AddrReadyFrac: 0.50, StaticInsts: 4500,
	},
	{
		Name: "twolf", LoadFrac: 0.25, StoreFrac: 0.07, BranchFrac: 0.12,
		FPFrac: 0.03, MulDivFrac: 0.01, DepMean: 7.0, TwoSrcFrac: 0.45,
		ColdFrac: 0.011, WarmFrac: 0.075, HotLines: 300, WarmLines: 3200,
		MissyPCFrac: 0.16, MissyBias: 0.87, AliasFrac: 0.012,
		BranchRandFrac: 0.050, AddrReadyFrac: 0.60, StaticInsts: 3500,
	},
	{
		Name: "vortex", LoadFrac: 0.28, StoreFrac: 0.14, BranchFrac: 0.12,
		FPFrac: 0.0, MulDivFrac: 0.01, DepMean: 7.5, TwoSrcFrac: 0.50,
		ColdFrac: 0.014, WarmFrac: 0.030, HotLines: 360, WarmLines: 2600,
		MissyPCFrac: 0.10, MissyBias: 0.93, AliasFrac: 0.008,
		BranchRandFrac: 0.010, AddrReadyFrac: 0.60, StaticInsts: 5000,
	},
	{
		Name: "vpr", LoadFrac: 0.27, StoreFrac: 0.09, BranchFrac: 0.11,
		FPFrac: 0.06, MulDivFrac: 0.01, DepMean: 5.4, TwoSrcFrac: 0.45,
		ColdFrac: 0.012, WarmFrac: 0.055, HotLines: 300, WarmLines: 3000,
		MissyPCFrac: 0.13, MissyBias: 0.91, AliasFrac: 0.012,
		BranchRandFrac: 0.045, AddrReadyFrac: 0.50, StaticInsts: 3000,
	},
}

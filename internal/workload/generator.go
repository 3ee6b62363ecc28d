package workload

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/isa"
)

// Data region bases; disjoint high bits keep the regions from aliasing
// in caches by construction.
const (
	hotBase  = 0x1000_0000
	warmBase = 0x2000_0000
	coldBase = 0x4000_0000
	lineSize = 64
)

// ringSize bounds how far back dependence edges can reach, mimicking a
// finite architectural register file whose values get overwritten.
const ringSize = 64

// ctrlSeedMix decorrelates the control-flow RNG from the data RNG.
const ctrlSeedMix = 0x5deece66d

// valueSeedMix decorrelates the value-locality RNG.
const valueSeedMix = 0x2545f4914f6cdd1d

// Stream supplies dynamic instructions to the simulator.
type Stream interface {
	// Next returns the next dynamic instruction.
	Next() isa.Inst
}

// Program is a profile's synthetic program compiled for one seed: the
// static code with its missy marks, the cold/warm region probabilities,
// and how far sampling the code advanced the data RNG. It is immutable
// once compiled, so one Program serves any number of generators, on any
// number of goroutines. Compiling is most of the cost of starting a
// stream.
type Program struct {
	prof  Profile
	seed  int64
	slots []staticSlot
	// dataSteps is how many source steps buildStatic drew from the data
	// RNG. Every generator skips its data RNG past them, so its draws
	// continue exactly where they would had it built the code itself.
	dataSteps int

	// missy-vs-clean region probabilities, precomputed from the profile.
	pColdWarmMissy float64
	pColdWarmClean float64
	coldShare      float64 // cold / (cold + warm)
}

// Generator expands a Program into a deterministic dynamic instruction
// stream. It implements Stream. The same (profile, seed) pair always
// produces the same stream.
type Generator struct {
	// prog is a copy of the compiled program's header; its slots are
	// shared with every other walk of the program and never written.
	prog Program
	rng  *rand.Rand
	// ctrlRng drives branch outcomes (and nothing else), so the
	// control-flow trajectory is independent of data-model sampling and
	// exactly reproducible by the calibration pre-pass.
	ctrlRng *rand.Rand
	// valueRng drives value-locality outcomes on its own stream so that
	// enabling value-prediction modeling does not perturb the calibrated
	// address/dependence stream.
	valueRng *rand.Rand

	cursor int
	seq    int64

	// producers is a ring of recent value-producing sequence numbers.
	producers [ringSize]int64
	nProd     int
	prodHead  int

	// recentLoads/recentStores feed store-data and alias correlations.
	recentLoads  [16]int64
	nLoads       int
	loadHead     int
	recentStores [16]struct {
		seq  int64
		addr uint64
	}
	nStores   int
	storeHead int

	coldPtr uint64

	// lastInstance tracks the previous dynamic seq of each recurrent
	// slot, the loop-carried dependence. A map, not a per-slot slice:
	// only the few recurrent sites ever get an entry.
	lastInstance map[int]int64
}

// NewGenerator builds a generator for prof with the given seed. It
// compiles the program for this one walk; callers that walk the same
// (profile, seed) repeatedly should Compile once and call
// Program.NewGenerator per walk.
func NewGenerator(prof Profile, seed int64) (*Generator, error) {
	p, err := Compile(prof, seed)
	if err != nil {
		return nil, err
	}
	return p.NewGenerator(), nil
}

// Compile samples prof's static code for seed and calibrates its missy
// sites.
func Compile(prof Profile, seed int64) (*Program, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	p := &Program{
		prof:  prof,
		seed:  seed,
		slots: buildStatic(prof, rand.New(src)),
	}
	p.dataSteps = src.n
	cw := prof.ColdFrac + prof.WarmFrac
	if cw > 0 {
		p.coldShare = prof.ColdFrac / cw
	}
	// Mark missy sites. A small set of static loads accounts for most
	// dynamic misses (paper §4.1), and those sites still hit more than
	// half the time (§5.4) — so each missy site references cold/warm
	// data with a fixed per-site ratio derived from MissyBias, and the
	// calibration pass below marks just enough dynamic load mass missy
	// (hottest sites first: miss-prone loads live in the hot loops) for
	// the aggregate cold+warm fraction to hit the profile target.
	p.pColdWarmMissy = 0.45 + 0.5*prof.MissyBias
	missyDyn := p.markMissySites(cw)
	if missyDyn < 1 {
		p.pColdWarmClean = math.Min(0.85, (cw-missyDyn*p.pColdWarmMissy)/(1-missyDyn))
		if p.pColdWarmClean < 0 {
			p.pColdWarmClean = 0
		}
	}
	return p, nil
}

// NewGenerator starts a fresh walk of the program. Every walk yields the
// same stream, from its first instruction.
func (p *Program) NewGenerator() *Generator {
	src := rand.NewSource(p.seed)
	for i := 0; i < p.dataSteps; i++ {
		src.Int63()
	}
	g := &Generator{
		prog:         *p,
		rng:          rand.New(src),
		ctrlRng:      rand.New(rand.NewSource(p.seed ^ ctrlSeedMix)),
		valueRng:     rand.New(rand.NewSource(p.seed ^ valueSeedMix)),
		coldPtr:      coldBase,
		lastInstance: make(map[int]int64),
	}
	for i := range g.producers {
		g.producers[i] = -1
	}
	return g
}

// countingSource counts the steps drawn from a random source. Int63 and
// Uint64 each advance the underlying generator by one step.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.Source64.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.Source64.Uint64()
}

// markMissySites measures per-site dynamic load frequency with a dry
// control-flow walk (separate RNG; no generator state involved), then
// marks the most frequently visited load sites missy until the missy
// share of dynamic loads reaches MissyBias*cw/pColdWarmMissy. It
// returns the dynamic missy share actually reached.
func (p *Program) markMissySites(cw float64) float64 {
	// Same control-flow RNG seed as the real walk: the pre-pass visits
	// exactly the sites the simulation will.
	rng := rand.New(rand.NewSource(p.seed ^ ctrlSeedMix))
	n := len(p.slots)
	visits := make([]int32, n) // slot index -> dynamic load visits
	cursor := 0
	loads := 0
	const walk = 120_000
	for i := 0; i < walk; i++ {
		slot := &p.slots[cursor]
		if slot.class == isa.Load {
			visits[cursor]++
			loads++
		}
		if slot.class == isa.Branch && rng.Float64() < slot.takenBias {
			cursor = int(slot.target)
		} else if cursor++; cursor == n {
			cursor = 0
		}
	}
	if loads == 0 || cw == 0 {
		return 0
	}
	target := p.prof.MissyBias * cw / p.pColdWarmMissy
	if target > 0.9 {
		target = 0.9
	}
	// Hottest sites first; ties broken by slot index for determinism.
	// Each visited site packs into one key, (MaxInt32-visits)<<32 |
	// slot, whose ascending order is exactly that order.
	order := make([]uint64, 0, n)
	for s, v := range visits {
		if v > 0 {
			order = append(order, uint64(math.MaxInt32-v)<<32|uint64(s))
		}
	}
	slices.Sort(order)
	// Greedy knapsack: take the largest sites that still fit, so the
	// marked mass lands on the target without a single hot site
	// overshooting it by an order of magnitude.
	budget := int(target * float64(loads))
	marked := 0
	for _, k := range order {
		if marked >= budget {
			break
		}
		s := uint32(k)
		if v := int(visits[s]); marked+v <= budget+budget/5 {
			p.slots[s].missy = true
			marked += v
		}
	}
	// Fill pass: if chunky hot sites left the budget badly under-used,
	// take the smallest sites (ascending) until close; a small overshoot
	// beats spilling miss mass onto unpredictable clean sites.
	for i := len(order) - 1; i >= 0 && marked < budget-budget/10; i-- {
		s := uint32(order[i])
		if !p.slots[s].missy {
			p.slots[s].missy = true
			marked += int(visits[s])
		}
	}
	return float64(marked) / float64(loads)
}

// Profile returns the profile the generator was built from.
func (g *Generator) Profile() Profile { return g.prog.prof }

// Next produces the next dynamic instruction. It never fails: the
// synthetic program is an endless walk of its static code.
func (g *Generator) Next() isa.Inst {
	slot := &g.prog.slots[g.cursor]
	in := isa.Inst{
		Seq:   g.seq,
		PC:    slotPC(g.cursor),
		Class: slot.class,
		Src1:  -1,
		Src2:  -1,
	}
	switch slot.class {
	case isa.Load:
		// Address base: usually a stable (long-ready) base register;
		// pointer-chasing codes tie it to a recent producer.
		if g.rng.Float64() >= g.prog.prof.AddrReadyFrac {
			in.Src1 = g.sampleProducer()
		}
		in.Addr = g.loadAddr(slot)
		if slot.valueStable {
			in.ValueRepeat = g.valueRng.Float64() < 0.92
		} else {
			in.ValueRepeat = g.valueRng.Float64() < 0.25
		}
	case isa.Store:
		// Store addresses overwhelmingly use stable base registers.
		if g.rng.Float64() >= 0.6 {
			in.Src1 = g.sampleProducer()
		}
		in.Src2 = g.sampleStoreData()
		in.Addr = g.storeAddr()
	case isa.Branch:
		// Roughly half of conditions test long-computed values
		// (induction variables, flags set well in advance).
		if g.rng.Float64() >= 0.5 {
			in.Src1 = g.sampleProducer()
		}
		in.Taken = g.ctrlRng.Float64() < slot.takenBias
		in.Target = slotPC(int(slot.target))
	default:
		if slot.recurrent {
			// Loop-carried recurrence: read this site's previous
			// instance (the induction-variable chain).
			if prev, ok := g.lastInstance[g.cursor]; ok {
				in.Src1 = prev
			}
			if g.rng.Float64() < 0.5 {
				in.Src2 = g.sampleProducer()
			}
			g.lastInstance[g.cursor] = in.Seq
		} else {
			in.Src1 = g.sampleProducer()
			if g.rng.Float64() < g.prog.prof.TwoSrcFrac {
				in.Src2 = g.sampleProducer()
			}
		}
	}

	// Bookkeeping for future dependences.
	if slot.class.HasDest() {
		g.producers[g.prodHead] = g.seq
		g.prodHead = (g.prodHead + 1) % ringSize
		if g.nProd < ringSize {
			g.nProd++
		}
	}
	if slot.class == isa.Load {
		g.recentLoads[g.loadHead] = g.seq
		g.loadHead = (g.loadHead + 1) % len(g.recentLoads)
		if g.nLoads < len(g.recentLoads) {
			g.nLoads++
		}
	}
	if slot.class == isa.Store {
		g.recentStores[g.storeHead] = struct {
			seq  int64
			addr uint64
		}{g.seq, in.Addr}
		g.storeHead = (g.storeHead + 1) % len(g.recentStores)
		if g.nStores < len(g.recentStores) {
			g.nStores++
		}
	}

	// Advance control flow.
	if slot.class == isa.Branch && in.Taken {
		g.cursor = int(slot.target)
	} else if g.cursor++; g.cursor == len(g.prog.slots) {
		g.cursor = 0
	}
	g.seq++
	return in
}

// Generate returns the next n instructions as a slice.
func (g *Generator) Generate(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// sampleProducer picks a recent value producer at a geometric distance
// whose mean is the profile's DepMean, or -1 when the operand is
// long-ready (or no producer exists yet).
func (g *Generator) sampleProducer() int64 {
	if g.nProd == 0 {
		return -1
	}
	// A fraction of operands read values produced long ago (already
	// retired); they arrive ready. The fraction shrinks as chains
	// lengthen (small DepMean = tightly dependent code).
	if g.rng.Float64() < 0.04*g.prog.prof.DepMean {
		return -1
	}
	d := 1 + int(g.rng.ExpFloat64()*(g.prog.prof.DepMean-1))
	if d > g.nProd {
		d = g.nProd
	}
	idx := (g.prodHead - d + ringSize) % ringSize
	return g.producers[idx]
}

// sampleStoreData picks the store's data producer, biased toward recent
// loads so store-to-load chains (and thus alias scheduling misses with
// unready data) occur at realistic rates.
func (g *Generator) sampleStoreData() int64 {
	if g.nLoads > 0 && g.rng.Float64() < 0.4 {
		d := 1 + g.rng.Intn(min(4, g.nLoads))
		idx := (g.loadHead - d + len(g.recentLoads)) % len(g.recentLoads)
		return g.recentLoads[idx]
	}
	return g.sampleProducer()
}

// loadAddr picks the load's effective address according to the locality
// model: alias a recent store, or reference the hot / warm / cold
// region. Aliasing concentrates on the missy sites (spill/reload and
// pointer-update idioms live in the same miss-prone code), keeping
// store-to-load scheduling misses predictable by PC as in real codes;
// clean sites alias only rarely.
func (g *Generator) loadAddr(slot *staticSlot) uint64 {
	aliasP := g.prog.prof.AliasFrac * 0.3
	if slot.missy {
		aliasP = 0.12
	}
	if g.nStores > 0 && g.rng.Float64() < aliasP {
		d := 1 + g.rng.Intn(min(4, g.nStores))
		idx := (g.storeHead - d + len(g.recentStores)) % len(g.recentStores)
		return g.recentStores[idx].addr
	}
	pcw := g.prog.pColdWarmClean
	if slot.missy {
		pcw = g.prog.pColdWarmMissy
	}
	r := g.rng.Float64()
	switch {
	case r < pcw*g.prog.coldShare:
		g.coldPtr += lineSize
		return g.coldPtr
	case r < pcw:
		return warmBase + uint64(g.rng.Intn(g.prog.prof.WarmLines))*lineSize + uint64(g.rng.Intn(8))*8
	default:
		return hotBase + uint64(g.rng.Intn(g.prog.prof.HotLines))*lineSize + uint64(g.rng.Intn(8))*8
	}
}

// storeAddr picks a store address: mostly hot, some warm — stores write
// the active working set.
func (g *Generator) storeAddr() uint64 {
	if g.rng.Float64() < 0.1 {
		return warmBase + uint64(g.rng.Intn(g.prog.prof.WarmLines))*lineSize + uint64(g.rng.Intn(8))*8
	}
	return hotBase + uint64(g.rng.Intn(g.prog.prof.HotLines))*lineSize + uint64(g.rng.Intn(8))*8
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

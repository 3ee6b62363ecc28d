// Package bpred implements the branch prediction machinery of the
// paper's Table 3 machine: a combined predictor (4k-entry bimodal and
// 4k-entry gshare arbitrated by a 4k-entry selector), a 1k-entry 4-way
// branch target buffer, and a 16-entry return address stack. A TAGE
// organisation (geometric-history tagged tables over the same bimodal
// base) is selectable through Config.Kind for frontier studies; the
// BTB and RAS are shared by every kind.
//
// In the simulator the predictor steers the speculative front end;
// mispredictions are resolved when the branch executes and cost at least
// 11 cycles of redirection, matching Table 3.
package bpred

import (
	"fmt"
	"strings"
)

// Kind selects the direction-prediction organisation. The zero value
// is the paper's combined predictor, so zero-valued Configs keep their
// historical meaning.
type Kind int

const (
	// KindCombined is the paper's bimodal/gshare/selector combination.
	KindCombined Kind = iota
	// KindTAGE is a tagged geometric-history predictor over the
	// bimodal base table.
	KindTAGE
)

// kindNames is the canonical flag spelling per kind, indexed by Kind.
var kindNames = []string{"combined", "tage"}

// String returns the flag spelling of the kind.
func (k Kind) String() string {
	if int(k) < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindNames lists the parseable predictor kinds in declaration order.
func KindNames() []string {
	out := make([]string, len(kindNames))
	copy(out, kindNames)
	return out
}

// ParseKind resolves a flag spelling (case-insensitive) to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if strings.EqualFold(s, n) {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown branch predictor %q (have %s)",
		s, strings.Join(kindNames, ", "))
}

// counter is a 2-bit saturating counter; values 2..3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Config sizes each component. Zero values are replaced by the paper's
// configuration (see Default). The struct stays comparable (all plain
// ints) so pooled machines can test substrate reuse with ==.
type Config struct {
	// Kind selects the direction predictor organisation. The BTB and
	// RAS below are shared by every kind.
	Kind Kind
	// BimodalEntries is the bimodal table size (power of two). Under
	// KindTAGE the same table is the base predictor.
	BimodalEntries int
	// GshareEntries is the gshare table size (power of two).
	GshareEntries int
	// SelectorEntries is the chooser table size (power of two).
	SelectorEntries int
	// HistoryBits is the global history length used by gshare.
	HistoryBits int
	// BTBEntries and BTBAssoc size the branch target buffer.
	BTBEntries, BTBAssoc int
	// RASEntries sizes the return address stack.
	RASEntries int

	// TageTables is the number of tagged tables (KindTAGE only).
	TageTables int
	// TageEntries is the per-table entry count (power of two).
	TageEntries int
	// TageTagBits is the partial-tag width (at most 16).
	TageTagBits int
	// TageMinHist and TageMaxHist bound the geometric history-length
	// series across the tagged tables. The sentinel -1 in either field
	// gives every table a literal zero-length history, which makes the
	// tagged tables inert: they never hit and never allocate, so the
	// predictor degrades exactly to its bimodal base.
	TageMinHist int
	TageMaxHist int
}

// Default returns the Table 3 configuration: 4k bimodal / 4k gshare /
// 4k selector, 12 history bits, 1k-entry 4-way BTB, 16-entry RAS.
func Default() Config {
	return Config{
		BimodalEntries:  4096,
		GshareEntries:   4096,
		SelectorEntries: 4096,
		HistoryBits:     12,
		BTBEntries:      1024,
		BTBAssoc:        4,
		RASEntries:      16,
	}
}

// DefaultTAGE returns the Default machine with the TAGE direction
// predictor: four 1k-entry tagged tables with 9-bit tags over a
// geometric 4..64 history series, on the shared 4k bimodal base.
func DefaultTAGE() Config {
	cfg := Default()
	cfg.Kind = KindTAGE
	cfg.TageTables = 4
	cfg.TageEntries = 1024
	cfg.TageTagBits = 9
	cfg.TageMinHist = 4
	cfg.TageMaxHist = 64
	return cfg
}

// Predictor is the direction predictor (combined or TAGE) plus BTB
// and RAS. The zero value is not usable; construct with New.
type Predictor struct {
	cfg      Config
	bimodal  []counter
	gshare   []counter
	selector []counter // high counter values prefer gshare
	history  uint64
	histMask uint64
	tage     *tage // nil under KindCombined
	btb      *btb
	ras      *ras

	lookups     uint64
	mispredicts uint64
}

// New constructs a predictor; zero config fields take Default values.
func New(cfg Config) *Predictor {
	def := Default()
	if cfg.BimodalEntries == 0 {
		cfg.BimodalEntries = def.BimodalEntries
	}
	if cfg.GshareEntries == 0 {
		cfg.GshareEntries = def.GshareEntries
	}
	if cfg.SelectorEntries == 0 {
		cfg.SelectorEntries = def.SelectorEntries
	}
	if cfg.HistoryBits == 0 {
		cfg.HistoryBits = def.HistoryBits
	}
	if cfg.BTBEntries == 0 {
		cfg.BTBEntries = def.BTBEntries
	}
	if cfg.BTBAssoc == 0 {
		cfg.BTBAssoc = def.BTBAssoc
	}
	if cfg.RASEntries == 0 {
		cfg.RASEntries = def.RASEntries
	}
	if cfg.Kind == KindTAGE {
		tdef := DefaultTAGE()
		if cfg.TageTables == 0 {
			cfg.TageTables = tdef.TageTables
		}
		if cfg.TageEntries == 0 {
			cfg.TageEntries = tdef.TageEntries
		}
		if cfg.TageTagBits == 0 {
			cfg.TageTagBits = tdef.TageTagBits
		}
		if cfg.TageMinHist == 0 {
			cfg.TageMinHist = tdef.TageMinHist
		}
		if cfg.TageMaxHist == 0 {
			cfg.TageMaxHist = tdef.TageMaxHist
		}
	}
	p := &Predictor{
		cfg:      cfg,
		bimodal:  make([]counter, cfg.BimodalEntries),
		gshare:   make([]counter, cfg.GshareEntries),
		selector: make([]counter, cfg.SelectorEntries),
		histMask: (1 << cfg.HistoryBits) - 1,
		btb:      newBTB(cfg.BTBEntries, cfg.BTBAssoc),
		ras:      newRAS(cfg.RASEntries),
	}
	if cfg.Kind == KindTAGE {
		p.tage = newTage(cfg)
		p.histMask = histMaskFor(p.tage.maxHist())
	}
	// Weakly-not-taken start, weakly-prefer-bimodal chooser, matching
	// common sim-outorder initialization.
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	for i := range p.gshare {
		p.gshare[i] = 1
	}
	for i := range p.selector {
		p.selector[i] = 1
	}
	return p
}

// Prediction is the front end's view of one branch.
type Prediction struct {
	// Taken is the predicted direction.
	Taken bool
	// Target is the predicted target (0 when the BTB misses; a taken
	// prediction without a target still redirects fetch but only once
	// the target is computed, which the pipeline charges as a stall).
	Target uint64
	// usedGshare records which component produced the direction, for
	// the selector update.
	usedGshare bool
	// history snapshot for recovery-free speculative history updates.
	history uint64
	// prov is the TAGE provider: 0 for the bimodal base, i+1 for
	// tagged table i. provTaken/altTaken record the provider's and the
	// alternate's directions for the useful-counter update.
	prov      int8
	provTaken bool
	altTaken  bool
}

func (p *Predictor) bimodalIdx(pc uint64) int {
	return int((pc >> 2) & uint64(len(p.bimodal)-1))
}

func (p *Predictor) gshareIdx(pc uint64) int {
	return int(((pc >> 2) ^ p.history) & uint64(len(p.gshare)-1))
}

func (p *Predictor) selectorIdx(pc uint64) int {
	return int((pc >> 2) & uint64(len(p.selector)-1))
}

// Lookup predicts the branch at pc and speculatively updates global
// history with the predicted direction.
func (p *Predictor) Lookup(pc uint64) Prediction {
	p.lookups++
	pr := Prediction{history: p.history}
	if p.tage != nil {
		p.tage.lookup(p, pc, &pr)
	} else {
		b := p.bimodal[p.bimodalIdx(pc)].taken()
		g := p.gshare[p.gshareIdx(pc)].taken()
		if p.selector[p.selectorIdx(pc)].taken() {
			pr.Taken, pr.usedGshare = g, true
		} else {
			pr.Taken = b
		}
	}
	if t, ok := p.btb.lookup(pc); ok {
		pr.Target = t
	}
	p.history = ((p.history << 1) | boolBit(pr.Taken)) & p.histMask
	return pr
}

// Update trains the predictor with the branch's actual outcome. pr must
// be the Prediction returned by the matching Lookup. It returns whether
// the direction or target was mispredicted.
func (p *Predictor) Update(pc uint64, pr Prediction, taken bool, target uint64) bool {
	if p.tage != nil {
		p.tage.update(p, pc, pr, taken)
	} else {
		// Recompute component predictions under the history the lookup
		// saw.
		saved := p.history
		p.history = pr.history
		bi, gi, si := p.bimodalIdx(pc), p.gshareIdx(pc), p.selectorIdx(pc)
		p.history = saved

		b := p.bimodal[bi].taken()
		g := p.gshare[gi].taken()
		p.bimodal[bi] = p.bimodal[bi].update(taken)
		p.gshare[gi] = p.gshare[gi].update(taken)
		// Train the selector toward whichever component was right, when
		// they disagree.
		if b != g {
			p.selector[si] = p.selector[si].update(g == taken)
		}
	}
	if taken {
		p.btb.insert(pc, target)
	}
	mis := pr.Taken != taken || (taken && pr.Target != target)
	if mis {
		p.mispredicts++
		// Repair global history: squash the wrong speculative bit and
		// insert the true outcome.
		p.history = ((pr.history << 1) | boolBit(taken)) & p.histMask
	}
	return mis
}

// Reset restores the predictor to its freshly constructed state so a
// pooled machine can reuse the tables across runs.
func (p *Predictor) Reset() {
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	for i := range p.gshare {
		p.gshare[i] = 1
	}
	for i := range p.selector {
		p.selector[i] = 1
	}
	p.history = 0
	if p.tage != nil {
		p.tage.reset()
	}
	p.btb.reset()
	p.ras.reset()
	p.lookups, p.mispredicts = 0, 0
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(retPC uint64) { p.ras.push(retPC) }

// PopRAS predicts a return target.
func (p *Predictor) PopRAS() (uint64, bool) { return p.ras.pop() }

// Stats returns lookup and misprediction counts.
func (p *Predictor) Stats() (lookups, mispredicts uint64) {
	return p.lookups, p.mispredicts
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
